import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minterp import (
    RANDOM_FOURIER,
    RELU_L1SPHERE,
    FeatureFamily,
    RandomFeatureModel,
    SingularSystemError,
    TeacherFunction,
    TwoLayerNet,
    UnderParametrizedError,
    concentration_check,
    concentration_width,
    embed_two_layer,
    fit_random_features,
    kernel_empirical,
    kernel_exact,
    min_norm_solve,
    quadrature_rule,
    reference_lambda_min,
    resnet_eval_batch,
    ridgeless_coefficients,
    smallest_eigenvalue,
    teacher_eval_batch,
    two_layer_eval_batch,
)
from minterp.linalg import _FEATURE_TILE, _feature_sum
from minterp.random_features import _QUADRATURE_CHUNK, _QUADRATURE_SUB_BLOCK

from _oracles import (
    feature_sum_gap_bound,
    feature_sum_tiles,
    kernel_exact_blocks,
    kernel_exact_plain,
)

RELU = FeatureFamily(tag=RELU_L1SPHERE)


def _relu_kernel(X, Q, seed):
    """kernel_exact of the ReLU family on X, over a freshly drawn Q-point rule."""
    return kernel_exact(RELU, X, quadrature_rule(X.shape[0], Q, seed))


class TestFeatureFamilies:
    def test_relu_features_match_loop(self):
        X = np.random.default_rng(0).uniform(-1, 1, (3, 7))
        W = RELU.sample_params(3, 11, seed=1)
        Phi = RELU.features(W, X)
        assert Phi.shape == (7, 11)
        for i in range(7):
            for j in range(11):
                want = max(W[j, :3] @ X[:, i] + W[j, 3], 0.0)
                assert Phi[i, j] == pytest.approx(want, abs=1e-14)

    def test_relu_params_on_l1_sphere(self):
        W = RELU.sample_params(4, 500, seed=2)
        assert_allclose(np.abs(W).sum(axis=1), 1.0, atol=1e-12)

    def test_fourier_features_match_loop(self):
        fam = FeatureFamily(tag=RANDOM_FOURIER, gamma=2.5)
        X = np.random.default_rng(3).uniform(-1, 1, (2, 5))
        W = fam.sample_params(2, 9, seed=4)
        Phi = fam.features(W, X)
        for i in range(5):
            for j in range(9):
                want = math.cos(W[j, :2] @ X[:, i] + W[j, 2])
                assert Phi[i, j] == pytest.approx(want, abs=1e-14)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FeatureFamily(tag="cubic")

    def test_feature_values_bounded(self):
        # |phi| <= 1 for both families on the unit cube
        X = np.random.default_rng(5).uniform(-1, 1, (4, 50))
        for fam in (RELU, FeatureFamily(tag=RANDOM_FOURIER, gamma=3.0)):
            W = fam.sample_params(4, 200, seed=6)
            assert np.abs(fam.features(W, X)).max() <= 1.0 + 1e-12


class TestKernels:
    def test_fourier_quadrature_matches_closed_form(self):
        fam = FeatureFamily(tag=RANDOM_FOURIER, gamma=2.0)
        X = np.random.default_rng(7).uniform(-1, 1, (3, 10))
        quadrature = kernel_exact_blocks(fam, X, 400_000, 8)
        assert_allclose(quadrature, kernel_exact(fam, X), atol=8e-3)

    def test_fourier_kernel_is_exact_and_ignores_quadrature(self):
        fam = FeatureFamily(tag=RANDOM_FOURIER, gamma=3.0)
        X = np.random.default_rng(46).uniform(-1, 1, (5, 40))
        K = kernel_exact(fam, X)
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), 0.5)
        assert smallest_eigenvalue(K) >= -1e-12
        np.testing.assert_array_equal(K, kernel_exact(fam, X, quadrature_rule(5, 70_000, 47)))

    def test_relu_kernel_needs_a_rule_of_its_inputs_dimension(self):
        X = np.random.default_rng(46).uniform(-1, 1, (3, 10))
        with pytest.raises(ValueError, match="needs a quadrature rule"):
            kernel_exact(RELU, X)
        with pytest.raises(ValueError, match="d=2 for inputs of d=3"):
            kernel_exact(RELU, X, quadrature_rule(2, 1000, 0))
        with pytest.raises(ValueError, match="reference kernel needs"):
            reference_lambda_min(X, None)

    def test_relu_kernel_matches_quadrature_oracle(self):
        # d=1: the l1 sphere is w = (s1 u, s2 (1-u)) with u ~ U(0,1) and
        # independent uniform signs, so the kernel is a 1-d integral
        X = np.array([[-0.7, 0.2, 0.9]])
        u = (np.arange(400_000) + 0.5) / 400_000
        oracle = np.zeros((3, 3))
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                F = np.maximum(s1 * u[None, :] * X.T + s2 * (1 - u)[None, :], 0.0)
                oracle += F @ F.T / len(u) / 4.0
        K = _relu_kernel(X, 1_000_000, 9)
        assert_allclose(K, oracle, atol=1.5e-3)

    def test_kernel_exact_symmetric_psd(self):
        X = np.random.default_rng(10).uniform(-1, 1, (4, 12))
        K = _relu_kernel(X, 50_000, 11)
        np.testing.assert_array_equal(K, K.T)
        assert smallest_eigenvalue(K) >= -1e-12

    def test_kernel_exact_matches_per_block_oracle(self):
        # 140,000 points: 70,000 draws, a full seed block, then a short one
        # whose sub-blocks do not divide it evenly
        X = np.random.default_rng(20).uniform(-1, 1, (3, 130))
        K = _relu_kernel(X, 140_000, 21)
        want = kernel_exact_blocks(RELU, X, 140_000, 21)
        assert np.abs(K - want).max() <= 1e-14 * np.abs(want).max()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 6),
        # even point counts whose draws end around the first sub-block
        # boundaries or just past the first seed block
        quadrature=st.one_of(
            st.integers(1, 2 * _QUADRATURE_SUB_BLOCK + 1),
            st.integers(_QUADRATURE_CHUNK - 2, _QUADRATURE_CHUNK + _QUADRATURE_SUB_BLOCK + 1),
        ).map(lambda draws: 2 * draws),
        seed=st.integers(0, 2**32),
    )
    @example(n=3, d=2, quadrature=2, seed=0)
    @example(n=1, d=4, quadrature=2, seed=879)  # t = -0.012 against |w| . |(x, 1)| = 0.51
    @example(n=5, d=1, quadrature=2 * _QUADRATURE_CHUNK - 2, seed=1)
    @example(n=5, d=1, quadrature=2 * _QUADRATURE_CHUNK, seed=2)
    @example(n=5, d=1, quadrature=2 * _QUADRATURE_CHUNK + 2, seed=3)
    def test_kernel_exact_matches_per_block_oracle_property(self, n, d, quadrature, seed):
        # Both sides sum the same products relu(t) relu(t') over the rule's
        # N = Q / 2 draws w and their partners -w, t = w . (x, 1), so the
        # gap is rounding alone.  With u = eps / 2, D = d + 1, a = |w| . |(x, 1)|
        # and gamma_k = k u / (1 - k u), each t rounds by gamma_D a; over a
        # pair the products then move by (2 gamma_D + 2 gamma_D^2) a a'.
        # kernel_exact sums N pair terms (t t' + |t| |t'|) / 2 (gamma_N) and
        # the oracle Q point terms (gamma_Q).  Every bound is relative to
        # sum a a' over the draws, Q K_abs with K_abs = (|W| |(X; 1)|)^T
        # (|W| |(X; 1)|) / Q, not to K, which cancellation in t can make far
        # smaller.  kernel_exact's linear part sum t t' is (R (X; 1))^T
        # (R (X; 1)) with R^T R = M = sum w w^T.  Up to D draws R is the
        # draws, which round like the t above.  Past D, R is the eigh root
        # of M, summed over N draws (gamma_N), with a backward error of
        # order D u ||M||, and R (X; 1) rounds by gamma_D |R| |(x, 1)|.  These
        # are normwise: for the l1-sphere law M is near 2N / (D (D + 1)) I
        # and sum a a' at least near N ||(x, 1)||_1 ||(x', 1)||_1 / (D (D + 1)),
        # so they stay within a few D u K_abs.  Adding the divisions and the
        # oracle's symmetrization, the gap is at most (3N + 4D + 5) u K_abs
        # to first order; (3N + 4D + 8) eps K_abs covers the higher-order
        # terms twice over.  The pinned one-draw rule's gap is 0, and over
        # 24,000 rules of D + 1 to 3D draws at n = 300 the largest was 0.26
        # of the bound.  Every term of K is a product of a matrix with its
        # own transpose, which numpy computes as one triangle and mirrors,
        # so K is symmetric bit for bit.
        X = np.random.default_rng(seed).uniform(-1, 1, (d, n))
        rule = quadrature_rule(d, quadrature, seed)
        K = kernel_exact(RELU, X, rule)
        assert np.array_equal(K, K.T)
        want = kernel_exact_blocks(RELU, X, quadrature, seed)
        T = np.abs(rule.pairs) @ np.vstack([np.abs(X), np.ones((1, n))])
        K_abs = T.T @ T / quadrature
        multiple = 3 * len(rule.pairs) + 4 * (d + 1) + 8
        assert np.all(np.abs(K - want) <= multiple * np.finfo(float).eps * K_abs)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 4),
        k=st.integers(1, 3),
        # up to five float64 sub-blocks, the last one short, and up to two float32 blocks
        draws=st.integers(1, 5 * _QUADRATURE_SUB_BLOCK + 7),
        seed=st.integers(0, 2**32),
    )
    def test_kernel_exact_basis_is_the_projected_kernel(self, n, d, k, draws, seed):
        # The witness pass sums (|F| B)^T (|F| B) with |F| B in float32, and
        # its bound covers that rounding.  Beyond it, each term of an entry
        # rounds in float64 in K's sub-blocks, across the blocks of both
        # sides, in the basis products and in t = w . (x, 1) at most
        # _QUADRATURE_SUB_BLOCK + blocks + 3 n + 2 (d + 1) times over both
        # sides, relative to the absolute terms |B|^T K_abs |B| (see the
        # per-block oracle test for K_abs and the linear part); the
        # allowance takes each count three times for the higher-order terms.
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (d, n))
        B = rng.standard_normal((n, k))
        rule = quadrature_rule(d, 2 * draws, seed)
        got, bound = kernel_exact(RELU, X, rule, B)
        assert got.shape == bound.shape == (k, k) and np.all(bound >= 0)
        want = B.T @ kernel_exact(RELU, X, rule) @ B
        T = np.abs(rule.pairs) @ np.vstack([np.abs(X), np.ones((1, n))])
        K_abs = T.T @ T / rule.Q
        blocks = -(-draws // _QUADRATURE_SUB_BLOCK)
        multiple = 3 * (_QUADRATURE_SUB_BLOCK + blocks + 3 * n + 2 * (d + 1))
        scale = np.abs(B).T @ K_abs @ np.abs(B)
        assert np.all(np.abs(got - want) <= bound + multiple * np.finfo(float).eps * scale)

    def test_kernel_exact_rejects_a_basis_of_other_points(self):
        X = np.random.default_rng(0).uniform(-1, 1, (2, 5))
        for basis in (np.ones((4, 1)), np.ones(5)):
            with pytest.raises(ValueError, match="basis of shape"):
                kernel_exact(RELU, X, quadrature_rule(2, 100, 0), basis)

    @pytest.mark.parametrize("n, blocks", [(512, 1), (256, 2), (64, 4)])
    def test_kernel_exact_memory_is_one_buffer_per_block(self, n, blocks):
        # a ReLU call holds K, the F^T F product and one (1024, n) |feature|
        # buffer, with 128 KB to spare, whatever the rule's size; the cosine
        # closed form holds K and one (n, n) difference, no (d, n, n)
        d = 4
        rule = quadrature_rule(d, blocks * _QUADRATURE_CHUNK, 45)
        X = np.random.default_rng(44).uniform(-1, 1, (d, n))
        bound = 8 * _QUADRATURE_SUB_BLOCK * n + 2 * 8 * n * n + 2**17
        for fam in (RELU, FeatureFamily(tag=RANDOM_FOURIER)):
            tracemalloc.start()
            try:
                kernel_exact(fam, X, rule)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_quadrature_rule_memory_is_its_draws_and_one_seed_block(self, blocks):
        # the rule's (Q / 2, d + 1) draws, written in place, plus, while a
        # seed block is drawn, its float64 row sums and uint32 sign words,
        # with 128 KB to spare
        d, Q = 4, blocks * _QUADRATURE_CHUNK
        bound = 8 * (Q // 2) * (d + 1) + _QUADRATURE_CHUNK * (8 + 4 * (d + 1)) + 2**17
        tracemalloc.start()
        try:
            quadrature_rule(d, Q, 45)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("seed", [3, 52, 907])
    def test_kernel_exact_agrees_with_plain_estimator(self, seed):
        # both estimate K from points of the same law; sharing the first
        # draws correlates them positively, so their difference has at most
        # the variance of two independent estimates: per entry,
        # var(phi phi') / Q plus var of a pair's mean / (Q / 2), both taken
        # from 20,000 separate draws, and 5 standard deviations bound it
        n, d, Q = 8, 3, 100_000
        X = np.random.default_rng(seed).uniform(-1, 1, (d, n))
        W = RELU.sample_params(d, 20_000, seed=seed + 1)
        plus = RELU.features(W, X)
        minus = RELU.features(-W, X)
        point = plus[:, None, :] * plus[None, :, :]
        pair = (point + minus[:, None, :] * minus[None, :, :]) / 2.0
        se = np.sqrt(point.var(axis=2) / Q + pair.var(axis=2) / (Q // 2))
        gap = _relu_kernel(X, Q, seed) - kernel_exact_plain(RELU, X, Q, seed)
        assert np.all(np.abs(gap) <= 5.0 * se)

    def test_kernel_exact_deterministic(self):
        X = np.random.default_rng(12).uniform(-1, 1, (2, 6))
        A = _relu_kernel(X, 30_000, 13)
        B = _relu_kernel(X, 30_000, 13)
        np.testing.assert_array_equal(A, B)

    def test_one_rule_summed_over_two_inputs_matches_the_oracle(self):
        rule = quadrature_rule(3, 140_000, 21)
        X = np.random.default_rng(20).uniform(-1, 1, (3, 130))
        for Xs in (X, X[:, :70]):
            K = kernel_exact(RELU, Xs, rule)
            want = kernel_exact_blocks(RELU, Xs, 140_000, 21)
            assert np.abs(K - want).max() <= 1e-14 * np.abs(want).max()

    def test_quadrature_rule_draws_afresh_a_read_only_rule(self):
        a, b = quadrature_rule(2, 5000, 7), quadrature_rule(2, 5000, 7)
        assert a is not b and a.pairs.tobytes() == b.pairs.tobytes()
        assert (a.Q, a.d, len(a.pairs)) == (5000, 2, 2500)
        assert not a.pairs.flags.writeable and not a.R.flags.writeable
        with pytest.raises(ValueError, match="d must be >= 1"):
            quadrature_rule(0, 10, 0)
        for Q in (0, 1, 5001):
            with pytest.raises(ValueError, match="Q must be an even count"):
                quadrature_rule(2, Q, 0)

    @pytest.mark.parametrize("d, Q", [(3, 140_000), (2, 10), (4, 2), (4, 8)])
    def test_rule_root_reproduces_the_second_moment(self, d, Q):
        # R^T R = sum w w^T over the pairs to rounding: the blocked sum of M
        # against the one-shot product (gamma_N), plus eigh's backward error.
        # Up to d + 1 draws, where M is rank-deficient, R is the draws
        rule = quadrature_rule(d, Q, 7)
        M = rule.pairs.T @ rule.pairs
        gap = np.abs(rule.R.T @ rule.R - M).max()
        assert gap <= (len(rule.pairs) + 8 * (d + 1)) * np.finfo(float).eps * np.linalg.norm(M, 2)
        assert rule.R.shape == (min(len(rule.pairs), d + 1), d + 1)
        if len(rule.pairs) <= d + 1:
            assert rule.R is rule.pairs

    def test_reference_lambda_min_is_relu_quadrature_eigenvalue(self):
        X = np.random.default_rng(18).uniform(-1, 1, (2, 6))
        want = smallest_eigenvalue(_relu_kernel(X, 20_000, 19))
        assert reference_lambda_min(X, quadrature_rule(2, 20_000, 19)) == want

    def test_kernel_empirical_is_gram(self):
        Phi = np.random.default_rng(14).standard_normal((5, 64))
        Km = kernel_empirical(Phi)
        assert_allclose(Km, Phi @ Phi.T / 64, rtol=1e-12)
        assert smallest_eigenvalue(Km) >= -1e-12
        # G is a sum of B @ B.T products, each one triangle mirrored, so no pass symmetrizes it;
        # the ReLU source spans several column blocks at n = 129
        X = np.random.default_rng(16).uniform(-1, 1, (3, 129))
        cosine = FeatureFamily(tag=RANDOM_FOURIER, gamma=1.5)
        sources = [np.random.default_rng(14).standard_normal((129, 3000)),
                   RELU.feature_source(RELU.sample_params(3, 5000, seed=17), X),
                   cosine.feature_source(cosine.sample_params(3, 3000, seed=18), X)]
        for source in sources:
            Km = kernel_empirical(source)
            assert np.array_equal(Km, Km.T)

    def test_empirical_converges_to_exact(self):
        X = np.random.default_rng(15).uniform(-1, 1, (3, 8))
        K = _relu_kernel(X, 500_000, 16)
        W = RELU.sample_params(3, 100_000, seed=17)
        Km = kernel_empirical(RELU.features(W, X))
        assert np.abs(K - Km).max() < 0.01


class TestMinNormInterpolant:
    def test_interpolates(self):
        X = np.random.default_rng(18).uniform(-1, 1, (3, 10))
        y = np.random.default_rng(19).uniform(-1, 1, 10)
        W = RELU.sample_params(3, 256, seed=20)
        Phi = RELU.features(W, X)
        a, image = min_norm_solve(Phi, 256 * y)
        assert_allclose(Phi @ a / 256, y, atol=1e-10)
        assert_allclose(image / 256, y, atol=1e-10)

    def test_matches_lstsq_oracle(self):
        X = np.random.default_rng(21).uniform(-1, 1, (2, 8))
        y = np.random.default_rng(22).uniform(-1, 1, 8)
        W = RELU.sample_params(2, 128, seed=23)
        Phi = RELU.features(W, X)
        a, _ = min_norm_solve(Phi, 128 * y)
        ref, *_ = np.linalg.lstsq(Phi, 128 * y, rcond=None)
        assert_allclose(a, ref, rtol=1e-8, atol=1e-10)

    def test_norm_identity_with_empirical_kernel(self):
        # ||a_hat||^2 / m = y (K^m)^{-1} y
        X = np.random.default_rng(24).uniform(-1, 1, (3, 12))
        y = np.random.default_rng(25).uniform(-1, 1, 12)
        W = RELU.sample_params(3, 512, seed=26)
        Phi = RELU.features(W, X)
        a, _ = min_norm_solve(Phi, 512 * y)
        lhs = np.linalg.norm(a) ** 2 / 512
        beta, _ = ridgeless_coefficients(kernel_empirical(Phi), y)
        rhs = float(y @ beta)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), n=st.integers(1, 20), extra=st.integers(0, 60),
           tag=st.sampled_from([RELU_L1SPHERE, RANDOM_FOURIER]), seed=st.integers(0, 2**32 - 2))
    @example(d=1, n=1, extra=1, tag=RANDOM_FOURIER, seed=2557)
    def test_orthogonal_to_null_space(self, d, n, extra, tag, seed):
        # The minimum-norm solution lies in the row space of Phi (n, m), m >= n.
        # Rounding adds three null-space parts, each bounded in units of
        # eps ||a|| with cond = cond(Phi) and gamma_k = k u / (1 - k u) <= k eps:
        # - the solve's last product.  The gram route writes a = Phi^T v,
        #   which rounds each entry by gamma_n |Phi_j|^T |v|, so by
        #   ||Phi||_F <= sqrt(n) sigma_max and ||v|| <= ||a|| / sigma_min it
        #   adds gamma_n sqrt(n) cond ||a||.  The svd route writes
        #   a = Vt_r^T w and adds gamma_n sqrt(n) ||a|| plus the angle of Vt_r
        #   to the row space, which the basis term below also bounds.
        # - the measurement's basis.  LAPACK's SVD is exact for Phi + E with
        #   ||E|| <= m eps ||Phi||, so by Wedin's
        #   sin-theta theorem Vt[n:] spans a space at angle <= m eps cond to
        #   the null space, and its rows are orthonormal to m eps.
        # - the measurement's product Vt[n:] @ a.  Each entry rounds by
        #   gamma_m ||a||, so the m - n entries add gamma_m sqrt(m - n) ||a||.
        # Together, to first order (the solve's cutoff keeps m eps cond
        # below 1e-5): eps ||a|| (cond (m + n sqrt(n)) + m (1 + sqrt(m - n))).
        # Over 5,000 seeds each at d = n = 1, m = 2 and 3, under both families,
        # the worst draw reached 0.37 of this; the basis-angle term
        # m eps cond ||a|| alone fails 36 of them, the @example among them.
        m = n + extra
        rng = np.random.default_rng(seed)
        fam = FeatureFamily(tag=tag)
        Phi = fam.features(fam.sample_params(d, m, seed), rng.uniform(-1, 1, (d, n)))
        try:
            a, _ = min_norm_solve(Phi, m * rng.uniform(-1, 1, n))
        except SingularSystemError:
            reject()  # a rank-deficient draw has no interpolant to test
        _, s, Vt = np.linalg.svd(Phi)
        null_part = np.linalg.norm(Vt[n:] @ a)
        cond = s[0] / s[-1]
        bound = cond * (m + n * math.sqrt(n)) + m * (1 + math.sqrt(m - n))
        assert null_part <= bound * np.finfo(float).eps * np.linalg.norm(a)

    def test_underparametrized_rejected(self):
        X = np.random.default_rng(30).uniform(-1, 1, (3, 10))
        with pytest.raises(UnderParametrizedError):
            fit_random_features(X, np.ones(10), RELU, 5, seed=31)

    def test_nonfinite_label_rejected(self):
        # refused before any feature is drawn, not carried into an all-NaN fit
        X = np.random.default_rng(27).uniform(-1, 1, (3, 9))
        y = np.random.default_rng(28).uniform(-1, 1, 9)
        y[4] = np.nan
        with pytest.raises(ValueError, match="labels y contain non-finite entries"):
            fit_random_features(X, y, RELU, 64, seed=29)

    @pytest.mark.parametrize("tag", [RELU_L1SPHERE, RANDOM_FOURIER])
    def test_nonfinite_input_rejected(self, tag):
        # the factor's eigh raises LinAlgError, itself a ValueError, on such
        # an input, so the message is matched
        X = np.random.default_rng(27).uniform(-1, 1, (3, 9))
        X[1, 4] = np.inf if tag == RELU_L1SPHERE else np.nan
        with pytest.raises(ValueError, match="inputs X contain non-finite entries"):
            fit_random_features(X, np.zeros(9), FeatureFamily(tag=tag), 64, seed=29)

    def test_fit_random_features(self):
        X = np.random.default_rng(27).uniform(-1, 1, (3, 9))
        y = np.random.default_rng(28).uniform(-1, 1, 9)
        fit = fit_random_features(X, y, RELU, 200, seed=29)
        assert fit.interp_error < 1e-10
        assert fit.norm_radius == pytest.approx(fit.coeff_norm / math.sqrt(200))
        assert_allclose(fit.model.predict(X), y, atol=1e-10)

    @pytest.mark.parametrize("caller", ["predict", "two_layer", "teacher"])
    def test_predict_chunking_consistent(self, caller):
        # each column's value depends only on its own tile of _FEATURE_TILE
        # columns, so slices cut at tile boundaries reproduce it bit for bit,
        # through each caller of the tiled kernel
        X = np.random.default_rng(30).uniform(-1, 1, (2, 6))
        y = np.random.default_rng(31).uniform(-1, 1, 6)
        model = fit_random_features(X, y, RELU, 600, seed=32).model
        evaluate = {
            "predict": model.predict,
            "two_layer": partial(two_layer_eval_batch, TwoLayerNet(model.coefficients, model.params)),
            "teacher": partial(teacher_eval_batch, TeacherFunction(model.coefficients, model.params)),
        }[caller]
        Xt = np.random.default_rng(33).uniform(-1, 1, (2, 700))
        cuts = [0, _FEATURE_TILE, 2 * _FEATURE_TILE, 700]
        pieces = [evaluate(Xt[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(evaluate(Xt), np.concatenate(pieces))

    def test_model_without_features_rejected(self):
        # a zero-feature model would predict 0 / 0
        with pytest.raises(ValueError, match="at least one feature"):
            RandomFeatureModel(family=RELU, params=np.empty((0, 4)), coefficients=np.empty(0))

    @pytest.mark.parametrize("tag", [RELU_L1SPHERE, RANDOM_FOURIER])
    def test_predict_equals_feature_matrix_route(self, tag):
        # the tiled sum and Phi a / m round differently; they agree within
        # the dot-product forward-error bound of feature_sum_gap_bound
        family = FeatureFamily(tag=tag, gamma=1.5)
        W = family.sample_params(3, 700, seed=37)
        a = np.random.default_rng(38).standard_normal(700)
        Xt = np.random.default_rng(39).uniform(-1, 1, (3, 600))
        model = RandomFeatureModel(family=family, params=W, coefficients=a)
        want = family.features(W, Xt) @ a / 700
        bound = feature_sum_gap_bound(a, W, Xt, relu=tag == RELU_L1SPHERE) / 700
        assert np.all(np.abs(model.predict(Xt) - want) <= bound)

    def test_predict_rejects_wrong_input_dimension(self):
        W = RELU.sample_params(3, 16, seed=40)
        model = RandomFeatureModel(family=RELU, params=W, coefficients=np.ones(16))
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 5)))


class TestTiledFeatureSum:
    """The one tiled kernel behind predict, two_layer_eval_batch, the one-pass resnet and the teacher."""

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 600), n=st.integers(1, 600),
           seed=st.integers(0, 2**32 - 2))
    @example(d=1, m=1, n=1, seed=0)
    @example(d=4, m=257, n=513, seed=1)
    @example(d=2, m=256, n=255, seed=2)
    def test_every_caller_matches_feature_matrix_at_ragged_shapes(self, d, m, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(m)
        X = rng.uniform(-1, 1, (d, n))
        fourier = FeatureFamily(tag=RANDOM_FOURIER, gamma=1.5)
        Wf = fourier.sample_params(d, m, seed)
        got = RandomFeatureModel(family=fourier, params=Wf, coefficients=a).predict(X)
        want = fourier.features(Wf, X) @ a / m
        assert np.all(np.abs(got - want) <= feature_sum_gap_bound(a, Wf, X, relu=False) / m)

        W = RELU.sample_params(d, m, seed)
        net = TwoLayerNet(a=a, W=W)
        want = RELU.features(W, X) @ a / m
        bound = feature_sum_gap_bound(a, W, X) / m
        for got in (RandomFeatureModel(family=RELU, params=W, coefficients=a).predict(X),
                    two_layer_eval_batch(net, X),
                    resnet_eval_batch(embed_two_layer(net), X)):
            assert got.shape == (n,)
            assert np.all(np.abs(got - want) <= bound)

    # m = 1000 ends on a partial weight tile, m = 1280 on a full one, and
    # n = 257 and 513 leave a one-column input tile.
    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 1300), n=st.integers(1, 600),
           relu=st.booleans(), seed=st.integers(0, 2**32 - 2))
    @example(d=1, m=1, n=1, relu=True, seed=0)
    @example(d=4, m=257, n=513, relu=False, seed=1)
    @example(d=2, m=512, n=256, relu=True, seed=2)
    @example(d=3, m=1000, n=300, relu=True, seed=3)
    @example(d=3, m=1000, n=300, relu=False, seed=4)
    @example(d=2, m=1280, n=257, relu=True, seed=5)
    @example(d=2, m=1280, n=257, relu=False, seed=6)
    def test_reused_buffers_match_per_tile_arrays_bitwise(self, d, m, n, relu, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(m)
        W = rng.standard_normal((m, d + 1))
        X = rng.uniform(-1, 1, (d, n))
        got = _feature_sum(a, W, X, relu=relu)
        assert got.tobytes() == feature_sum_tiles(a, W, X, relu=relu).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 600), n=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 2))
    @example(d=1, m=1, n=1, seed=0)
    @example(d=4, m=513, n=257, seed=1)
    def test_relu_through_abs_matches_the_maximum_sum(self, d, m, n, seed):
        # relu(t) = (t + |t|) / 2 rounds differently from max(t, 0); the gap is
        # a few m eps times sum_j |a_j| |W_j| |x~|, the forward-error scale of
        # sum_j |a_j| |t_j|
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(m)
        W = rng.standard_normal((m, d + 1))
        X = rng.uniform(-1, 1, (d, n))
        want = a @ np.maximum(W @ np.vstack([X, np.ones((1, n))]), 0.0)
        assert np.all(np.abs(_feature_sum(a, W, X) - want) <= feature_sum_gap_bound(a, W, X))

    def test_memory_does_not_scale_with_width_times_inputs(self):
        # one (m, 1024) activation block at m = 8192 was 64 MB; the tiles
        # need one 512 KB pre-activation tile plus the output
        m = n = 8192
        W = RELU.sample_params(4, m, seed=41)
        a = np.random.default_rng(42).standard_normal(m)
        X = np.random.default_rng(43).uniform(-1, 1, (4, n))
        model = RandomFeatureModel(family=RELU, params=W, coefficients=a)
        net = TwoLayerNet(a=a, W=W)
        for evaluate in (model.predict, partial(two_layer_eval_batch, net)):
            tracemalloc.start()
            try:
                evaluate(X)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20 + 8 * n


class TestSinglePrecisionSum:
    """_feature_sum's float32 tiles and their certified per-point bound B."""

    # m = 257 and 1000 end on a partial weight tile, 513 on a one-row one;
    # n = 1 is one column, and dup repeats the first rows of W further down.
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), m=st.integers(1, 1300), n=st.integers(1, 600),
           dup=st.booleans(), corners=st.booleans(), seed=st.integers(0, 2**32 - 2))
    @example(d=1, m=1, n=1, dup=False, corners=True, seed=0)
    @example(d=4, m=257, n=1, dup=True, corners=False, seed=1)
    @example(d=2, m=513, n=600, dup=True, corners=True, seed=2)
    @example(d=3, m=1000, n=513, dup=False, corners=False, seed=3)
    def test_within_its_bound_of_the_float64_and_extended_sums(self, d, m, n, dup, corners, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((m, d + 1))
        if dup:
            W[m // 2 : m // 2 + m // 4] = W[: m // 4]
        # |a_j| log-uniform on [1e-3, 1e3], random signs
        a = 10.0 ** rng.uniform(-3, 3, m) * rng.choice([-1.0, 1.0], m)
        X = rng.choice([-1.0, 1.0], (d, n)) if corners else rng.uniform(-1, 1, (d, n))
        got, bound = _feature_sum(a, W, X, single=True)
        Xt = np.vstack([X, np.ones((1, n))])
        exact = a.astype(np.longdouble) @ np.maximum(W.astype(np.longdouble) @ Xt, 0)
        assert np.all(np.abs(got - _feature_sum(a, W, X)) <= bound)
        assert np.all(np.abs(got - exact) <= bound)
        # and B stays a usable bound, under 1e-5 of P = |a|^T |W| |x~|
        assert np.all(bound <= 1e-5 * (np.abs(a) @ np.abs(W) @ np.abs(Xt)))

    @pytest.mark.parametrize("tag", [RELU_L1SPHERE, RANDOM_FOURIER])
    def test_predict_default_keeps_the_float64_bytes(self, tag):
        # the keyword's default is the float64 oracle: the bytes of the
        # fresh-array tile loop, at ragged shapes
        family = FeatureFamily(tag=tag, gamma=1.5)
        W = family.sample_params(3, 700, seed=44)
        a = np.random.default_rng(45).standard_normal(700)
        X = np.random.default_rng(46).uniform(-1, 1, (3, 517))
        model = RandomFeatureModel(family=family, params=W, coefficients=a)
        want = feature_sum_tiles(a, W, X, relu=tag == RELU_L1SPHERE) / 700
        assert model.predict(X).tobytes() == want.tobytes()
        assert model.predict(X, single=False).tobytes() == want.tobytes()

    def test_predict_single_scales_sums_and_bound_by_m(self):
        W = RELU.sample_params(2, 300, seed=47)
        a = np.random.default_rng(48).standard_normal(300)
        X = np.random.default_rng(49).uniform(-1, 1, (2, 40))
        got, bound = RandomFeatureModel(family=RELU, params=W, coefficients=a).predict(X, single=True)
        sums, sum_bound = _feature_sum(a, W, X, single=True)
        assert got.tobytes() == (sums / 300).tobytes()
        assert bound.tobytes() == (sum_bound / 300).tobytes()

    def test_cosine_features_have_no_single_mode(self):
        family = FeatureFamily(tag=RANDOM_FOURIER)
        model = RandomFeatureModel(family=family, params=family.sample_params(2, 8, 50),
                                   coefficients=np.ones(8))
        with pytest.raises(ValueError, match="relu features only"):
            model.predict(np.zeros((2, 3)), single=True)


class TestRidgeless:
    def test_reproduces_labels(self):
        X = np.random.default_rng(34).uniform(-1, 1, (4, 16))
        K = _relu_kernel(X, 200_000, 35)
        y = np.random.default_rng(36).uniform(-1, 1, 16)
        beta, _ = ridgeless_coefficients(K, y)
        assert_allclose(K @ beta, y, atol=1e-9)

    def test_norm_bound_nonnegative_and_matches_dot(self):
        X = np.random.default_rng(37).uniform(-1, 1, (3, 10))
        K = _relu_kernel(X, 100_000, 38)
        y = np.random.default_rng(39).uniform(-1, 1, 10)
        beta, _ = ridgeless_coefficients(K, y)
        s2 = float(y @ beta)
        assert s2 >= 0
        assert s2 == pytest.approx(float(y @ np.linalg.solve(K, y)), rel=1e-10)

    def test_lambda_min_from_the_same_eigensolve(self):
        X = np.random.default_rng(37).uniform(-1, 1, (3, 10))
        K = _relu_kernel(X, 100_000, 38)
        _, lam = ridgeless_coefficients(K, np.ones(10))
        assert lam == pytest.approx(smallest_eigenvalue(K), rel=1e-10)

    def test_singular_kernel_refused_at_the_cutoff(self):
        v = np.array([1.0, 2.0, -1.0, 0.5])
        with pytest.raises(SingularSystemError,
                           match=r"smallest eigenvalue \S+ is at or below cutoff \S+ \(smallest=") as err:
            ridgeless_coefficients(np.outer(v, v), np.ones(4))
        assert err.value.cutoff == pytest.approx(1e-10 * (v @ v), rel=1e-12)
        assert err.value.smallest <= err.value.cutoff

    def test_asymmetric_kernel_rejected(self):
        K = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            ridgeless_coefficients(K, np.ones(2))


class TestConcentration:
    def test_width_formula(self):
        n, delta, lam = 32, 0.1, 0.1
        want = 2 * n * n * math.log(2 * n * n / delta) / lam**2
        assert concentration_width(n, delta, lam) == pytest.approx(want)
        assert concentration_width(n, delta, lam, factor=8.0) == pytest.approx(4 * want)

    def test_bound_halves_when_m_quadruples(self):
        K = np.eye(4)
        a = concentration_check(K, K, m=100, delta=0.1)
        b = concentration_check(K, K, m=400, delta=0.1)
        assert a.bound == pytest.approx(2 * b.bound)

    def test_check_fields(self):
        rng = np.random.default_rng(40)
        M = rng.standard_normal((5, 5))
        K = M @ M.T
        E = rng.standard_normal((5, 5)) * 0.01
        Km = K + (E + E.T) / 2
        chk = concentration_check(K, Km, m=1000, delta=0.1)
        assert chk.observed == pytest.approx(np.linalg.norm(K - Km, ord=2))
        assert chk.observed_frobenius >= chk.observed
        assert chk.holds == (chk.observed <= chk.bound)
        assert chk.lambda_min_empirical == smallest_eigenvalue(Km)
        # Weyl: the eigenvalue moves by at most the spectral deviation
        assert abs(smallest_eigenvalue(K) - chk.lambda_min_empirical) <= chk.observed + 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            concentration_width(4, 1.5, 0.1)
        with pytest.raises(ValueError):
            concentration_width(4, 0.1, 0.0)
        with pytest.raises(ValueError):
            concentration_check(np.eye(3), np.eye(4), m=10, delta=0.1)
