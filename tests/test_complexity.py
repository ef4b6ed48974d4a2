import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minterp import (
    RELU_L1SPHERE,
    FeatureFamily,
    GramFactor,
    RandomFeatureModel,
    fit_random_features,
    generalization_bound,
    population_risk,
    rad_path_ball,
    rad_rf_ball,
    rad_weighted_path_upper,
    rf_ball_upper,
    make_teacher,
    rng_from,
    derive_seed,
    teacher_eval_batch,
)
from minterp import complexity
from minterp.complexity import RadEstimate

from _oracles import rad_path_ball_mean_se, rad_rf_ball_mean_se


class TestRadRfBall:
    def test_constant_feature_enumeration(self):
        # phi = 1: sup over the ball is (C/(n sqrt(m))) |xi_1 + xi_2|, and
        # E|xi_1 + xi_2| = 1, so the complexity is exactly 1/2 at C = 1
        est = rad_rf_ball(np.ones((2, 1)), C=1.0, n_draws=512, seed=7)
        assert abs(est.mean - 0.5) <= 3 * est.std_error
        assert est.std_error > 0

    def test_orthogonal_features_have_constant_sup(self):
        # Phi = I: ||Phi^T xi|| = sqrt(2) for every sign vector
        est = rad_rf_ball(np.eye(2), C=1.0, n_draws=64, seed=8)
        assert est.mean == pytest.approx(0.5, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-15)

    def test_scales_linearly_in_c(self):
        Phi = np.random.default_rng(9).standard_normal((4, 16))
        a = rad_rf_ball(Phi, C=1.0, n_draws=32, seed=10)
        b = rad_rf_ball(Phi, C=2.5, n_draws=32, seed=10)
        assert b.mean == pytest.approx(2.5 * a.mean, rel=1e-12)

    def test_below_theoretical_upper(self):
        # features bounded by 1 give rad <= C / sqrt(n)
        X = np.random.default_rng(11).uniform(-1, 1, (3, 16))
        from minterp import RELU_L1SPHERE, FeatureFamily

        fam = FeatureFamily(tag=RELU_L1SPHERE)
        Phi = fam.features(fam.sample_params(3, 256, seed=12), X)
        est = rad_rf_ball(Phi, C=1.3, n_draws=128, seed=13)
        upper = rf_ball_upper(1.3, 16)
        assert est.mean <= upper + 3 * est.std_error

    def test_upper_formula(self):
        assert rf_ball_upper(2.0, 25) == pytest.approx(0.4)

    @pytest.mark.parametrize("n, m, n_draws", [(1, 1, 1), (5, 3, 17), (16, 64, 256)])
    def test_signs_match_integer_formula(self, n, m, n_draws):
        Phi = np.random.default_rng(n + m).standard_normal((n, m))
        est = rad_rf_ball(Phi, C=1.7, n_draws=n_draws, seed=21)
        assert (est.mean, est.std_error) == rad_rf_ball_mean_se(Phi, 1.7, n_draws, 21)

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 3), (16, 64), (40, 500)])
    def test_gram_quadratic_form_is_the_feature_norm(self, n, m):
        # the identity rad_rf_ball rests on: xi^T (Phi Phi^T) xi = ||Phi^T xi||^2
        rng = np.random.default_rng(30 + n)
        Phi = rng.standard_normal((n, m))
        xi = rng.choice([-1.0, 1.0], size=(n, 32))
        quad = np.einsum("it,ij,jt->t", xi, Phi @ Phi.T, xi)
        assert_allclose(np.sqrt(quad), np.linalg.norm(Phi.T @ xi, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("n, m, n_draws", [(5, 3, 17), (16, 64, 256), (8, 1 << 16, 200)])
    def test_factor_and_array_give_the_same_estimate(self, n, m, n_draws):
        # (8, 2**16) draws its signs in blocks of 64, so the chunk loop runs too
        Phi = np.random.default_rng(n * m).standard_normal((n, m))
        assert rad_rf_ball(GramFactor(Phi), 1.3, n_draws, seed=4) == rad_rf_ball(
            Phi, 1.3, n_draws, seed=4
        )

    def test_near_duplicate_rows_give_a_finite_estimate(self):
        # for xi = ±(1, -1) the exact xi^T G xi is 1e-23; G's rounding makes it -1.1e-12
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        Phi = np.stack([x, x + 1e-13 * rng.standard_normal(1000)])
        est = rad_rf_ball(Phi, C=1.0, n_draws=64, seed=3)
        assert np.isfinite(est.mean) and np.isfinite(est.std_error)

    def test_validation(self):
        with pytest.raises(ValueError):
            rad_rf_ball(np.ones((2, 2)), C=0.0)
        with pytest.raises(ValueError):
            RadEstimate(mean=-0.1, std_error=0.0, n_sign_draws=1)


class TestRadPathBall:
    def grid_sup(self, A, xi_over_n):
        # dense sweep of the l1 sphere in R^2: w = (s1 u, s2 (1-u))
        u = np.linspace(0.0, 1.0, 4001)
        best = 0.0
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                W = np.stack([s1 * u, s2 * (1 - u)], axis=1)
                vals = np.abs(np.maximum(A @ W.T, 0.0).T @ xi_over_n)
                best = max(best, float(vals.max()))
        return best

    def test_matches_grid_oracle_d1(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (1, 12))
        A = np.vstack([X, np.ones(12)]).T  # (n, d+1)
        n_draws = 12
        res = rad_path_ball(X, C=1.0, n_draws=n_draws, n_starts=8, seed=5)
        # replay the estimator's sign stream and take dense-grid suprema
        sign_rng = rng_from(derive_seed(5, 1))
        grid_vals = []
        for _ in range(n_draws):
            xi = sign_rng.integers(0, 2, size=12) * 2.0 - 1.0
            grid_vals.append(self.grid_sup(A, xi / 12))
        grid_mean = float(np.mean(grid_vals))
        assert res.estimate.mean <= grid_mean * (1 + 1e-9)
        assert res.estimate.mean >= grid_mean * 0.98

    def test_lower_below_upper(self):
        for i in range(10):
            rng = rng_from(derive_seed(77, i))
            d = int(rng.integers(1, 4))
            n = int(rng.integers(4, 20))
            X = rng.uniform(-1, 1, (d, n))
            res = rad_path_ball(X, C=1.5, n_draws=8, n_starts=4, seed=derive_seed(77, 100 + i))
            assert res.estimate.mean <= res.upper + 3 * res.estimate.std_error

    def test_upper_formula(self):
        res = rad_path_ball(np.zeros((3, 4)), C=2.0, n_draws=1, n_starts=0, seed=0)
        assert res.upper == pytest.approx(2 * 2.0 * math.sqrt(2 * math.log(6) / 4))

    def test_zero_radius_short_circuit(self):
        res = rad_path_ball(np.ones((2, 5)), C=0.0, n_draws=4, seed=1)
        assert res.estimate.mean == 0.0
        assert res.estimate.std_error == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(4, 40),
        n_starts=st.sampled_from([0, 4, 8]),
        C=st.floats(0.01, 10.0),
        n_draws=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    # the bias vertex of a draw whose signs cancel: a rounded zero that once
    # sent the batched and the per-start ascents up different slopes
    @example(d=1, n=36, n_starts=0, C=1.0, n_draws=1, seed=6)
    def test_batched_ascent_matches_per_start_loop(self, d, n, n_starts, C, n_draws, seed):
        X = rng_from(seed).uniform(-1.0, 1.0, (d, n))
        est = rad_path_ball(X, C, n_draws=n_draws, n_starts=n_starts, seed=seed).estimate
        mean, se = rad_path_ball_mean_se(X, C, n_draws, n_starts, seed)
        assert est.mean == pytest.approx(mean, rel=1e-12)
        # each draw's value carries ~1 ulp, so se is exact only to ~eps * mean
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=1e-15 * mean)

    def test_blocks_of_draws_match_one_block(self, monkeypatch):
        X = rng_from(21).uniform(-1.0, 1.0, (3, 10))
        whole = rad_path_ball(X, 1.2, n_draws=7, n_starts=4, seed=22).estimate
        # k = 2 (d+1) + n_starts = 12 starts of n = 10 samples: two draws per block
        monkeypatch.setattr(complexity, "_BLOCK_ELEMENTS", 2 * 12 * 10)
        blocks = rad_path_ball(X, 1.2, n_draws=7, n_starts=4, seed=22).estimate
        mean, se = rad_path_ball_mean_se(X, 1.2, 7, 4, 22)
        assert blocks.mean == pytest.approx(whole.mean, rel=1e-12)
        assert blocks.mean == pytest.approx(mean, rel=1e-12)
        assert blocks.std_error == pytest.approx(se, rel=1e-12)

    def test_zero_inputs_freeze_every_start(self):
        # With X = 0 every start but the bias vertex has a zero subgradient
        # from the first step, and the bias vertex too when the signs cancel;
        # the per-draw supremum is |sum xi| / n, exact for n = 4.
        n, n_draws = 4, 16
        X = np.zeros((2, n))
        res = rad_path_ball(X, C=1.0, n_draws=n_draws, n_starts=0, seed=3)
        stream = rng_from(derive_seed(3, 1))
        sums = [abs((stream.integers(0, 2, size=n) * 2.0 - 1.0).sum()) / n for _ in range(n_draws)]
        assert res.estimate.mean == float(np.mean(sums))
        assert (res.estimate.mean, res.estimate.std_error) == rad_path_ball_mean_se(
            X, 1.0, n_draws, 0, 3
        )
        # a lone draw whose signs cancel freezes all of its starts at once
        cancel = next(
            s for s in range(100)
            if (rng_from(derive_seed(s, 1)).integers(0, 2, size=n) * 2 - 1).sum() == 0
        )
        assert rad_path_ball(X, C=1.0, n_draws=1, n_starts=0, seed=cancel).estimate.mean == 0.0

    def test_weighted_upper_formula(self):
        upper = rad_weighted_path_upper(1.5, d=4, n=9)
        assert upper == pytest.approx(3 * 1.5 * math.sqrt(2 * math.log(8) / 9))


class TestGeneralizationBound:
    def test_hand_example(self):
        # delta = 2/e^2 makes ln(2/delta) = 2; C = 1 gives Q = 2 and C_loss = Q^2 / 2 = 2
        got = generalization_bound(emp_risk=0.1, C=1.0, rad=0.05, delta=2 / math.e**2, n=32)
        want = 0.1 + 2 * 2.0 * 0.05 + 4 * 2.0 * math.sqrt(4 / 32)
        assert got == pytest.approx(want)

    def test_loss_constants_follow_the_radius(self):
        # Lipschitz constant Q = C + 1 and sup bound C_loss = Q^2 / 2 of the squared loss
        C, rad, delta, n = 0.75, 0.03, 0.1, 50
        Q = C + 1.0
        tail = math.sqrt(2.0 * math.log(2.0 / delta) / n)
        want = 0.2 + 2.0 * Q * rad + 4.0 * (Q ** 2 / 2.0) * tail
        assert generalization_bound(0.2, C, rad, delta, n) == want

    def test_tail_term_halves_when_n_quadruples(self):
        lo = generalization_bound(0.0, 0.0, 0.0, 0.1, 100)
        hi = generalization_bound(0.0, 0.0, 0.0, 0.1, 400)
        assert lo == pytest.approx(2 * hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            generalization_bound(0.1, 1.0, -0.2, 0.1, 10)
        with pytest.raises(ValueError):
            generalization_bound(0.1, -1.0, 0.2, 0.1, 10)
        with pytest.raises(ValueError):
            generalization_bound(0.1, 1.0, 0.2, 2.5, 10)


class TestPopulationRisk:
    def test_matches_manual_monte_carlo(self):
        f = make_teacher(3, 6, seed=15)
        est = population_risk(lambda X: np.zeros(X.shape[1]), f, N_test=5000, seed=16)
        X = rng_from(16).uniform(-1.0, 1.0, size=(3, 5000))
        want = 0.5 * float(np.mean(teacher_eval_batch(f, X) ** 2))
        assert est.risk == pytest.approx(want, rel=1e-12)
        assert est.n_test == 5000

    def test_perfect_model_has_zero_risk(self):
        f = make_teacher(2, 4, seed=17)
        est = population_risk(lambda X: teacher_eval_batch(f, X), f, N_test=100, seed=18)
        assert est.risk == 0.0

    def test_single_route_kept_within_its_certificate(self):
        # a ReLU rf fit's float32 risk is kept, and its certificate bounds
        # the distance to the float64 route's risk
        f = make_teacher(3, 16, seed=19)
        X = rng_from(20).uniform(-1.0, 1.0, size=(3, 24))
        model = fit_random_features(X, teacher_eval_batch(f, X), FeatureFamily(RELU_L1SPHERE),
                                    24 * 32, seed=21).model
        est = population_risk(model.predict, f, N_test=2000, seed=22,
                              single_eval=partial(model.predict, single=True))
        want = population_risk(model.predict, f, N_test=2000, seed=22)
        assert want.rounding_bound is None
        assert est.rounding_bound is not None and est.rounding_bound <= est.std_error / 2
        assert abs(est.risk - want.risk) <= est.rounding_bound
        assert est.risk != want.risk  # the float32 route did sum it

    def test_failed_certificate_returns_the_float64_estimate(self):
        # the model's features and coefficients are the teacher's atoms, so
        # its float64 risk is 0 and no rounding certificate can stay within
        # half of the float32 route's standard error
        f = make_teacher(2, 64, seed=23)
        model = RandomFeatureModel(FeatureFamily(RELU_L1SPHERE), f.directions, f.coefficients)
        tried = []

        def single(X):
            tried.append(X.shape)
            return model.predict(X, single=True)

        est = population_risk(model.predict, f, N_test=1000, seed=24, single_eval=single)
        assert tried == [(2, 1000)]
        assert est == population_risk(model.predict, f, N_test=1000, seed=24)
        assert est == complexity.RiskEstimate(risk=0.0, std_error=0.0, n_test=1000)
