import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minterp import (
    ConcentrationFailureError,
    TwoLayerNet,
    UnderParametrizedError,
    approximate_teacher,
    derive_seed,
    fit_residual_net,
    interpolate_two_layer,
    make_teacher,
    path_norm,
    quadrature_rule,
    reference_lambda_min,
    sample_dataset,
    sum_networks,
    teacher_eval_batch,
    two_layer_eval_batch,
)
from minterp import two_layer

from _oracles import approximate_teacher_draws, two_layer_eval


def random_net(m, d, seed):
    rng = np.random.default_rng(seed)
    return TwoLayerNet(
        a=rng.standard_normal(m),
        W=np.column_stack([rng.standard_normal((m, d)), rng.standard_normal(m)]),
    )


class TestEvalAndNorm:
    def test_eval_matches_loop(self):
        net = random_net(6, 3, seed=0)
        x = np.array([0.2, -0.5, 0.7])
        want = sum(
            net.a[j] * max(net.W[j, :-1] @ x + net.W[j, -1], 0.0) for j in range(6)
        ) / 6
        assert two_layer_eval(net, x) == pytest.approx(want, rel=1e-12)

    def test_batch_matches_pointwise(self):
        net = random_net(5, 2, seed=1)
        X = np.random.default_rng(2).uniform(-1, 1, (2, 30))
        batch = two_layer_eval_batch(net, X)
        point = np.array([two_layer_eval(net, X[:, i]) for i in range(30)])
        assert_allclose(batch, point, rtol=1e-12)

    def test_batch_chunks_match_pointwise(self):
        # m and n span several 256-wide evaluation tiles; n is not a multiple of it
        net = random_net(1536, 3, seed=4)
        X = np.random.default_rng(5).uniform(-1, 1, (3, 2500))
        batch = two_layer_eval_batch(net, X)
        point = np.array([two_layer_eval(net, X[:, i]) for i in range(X.shape[1])])
        assert_allclose(batch, point, rtol=1e-12, atol=1e-14)

    def test_network_without_neurons_rejected(self):
        # a zero-neuron network would evaluate to 0 / 0
        with pytest.raises(ValueError, match="at least one neuron"):
            TwoLayerNet(a=np.empty(0), W=np.empty((0, 4)))

    def test_path_norm_hand_example(self):
        net = TwoLayerNet(
            a=np.array([2.0, -3.0]),
            W=np.array([[0.5, -0.5, 0.25], [1.0, 0.0, -1.0]]),
        )
        want = (2.0 * (1.0 + 0.25) + 3.0 * (1.0 + 1.0)) / 2
        assert path_norm(net) == pytest.approx(want)

    def test_outer_scaling_homogeneity(self):
        net = random_net(4, 2, seed=3)
        scaled = TwoLayerNet(a=-2.5 * net.a, W=net.W)
        x = np.array([0.3, 0.4])
        assert two_layer_eval(scaled, x) == pytest.approx(-2.5 * two_layer_eval(net, x))
        assert path_norm(scaled) == pytest.approx(2.5 * path_norm(net))


class TestSumNetworks:
    def test_value_is_exact_sum(self):
        n1, n2 = random_net(3, 2, seed=4), random_net(5, 2, seed=5)
        total = sum_networks(n1, n2)
        assert total.m == 8
        X = np.random.default_rng(6).uniform(-1, 1, (2, 100))
        want = two_layer_eval_batch(n1, X) + two_layer_eval_batch(n2, X)
        assert_allclose(two_layer_eval_batch(total, X), want, rtol=1e-12, atol=1e-14)

    def test_path_norm_is_exactly_additive(self):
        n1, n2 = random_net(7, 3, seed=7), random_net(2, 3, seed=8)
        total = sum_networks(n1, n2)
        assert path_norm(total) == pytest.approx(path_norm(n1) + path_norm(n2), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), m1=st.integers(1, 40), m2=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 2))
    def test_value_and_path_norm_add(self, d, m1, m2, seed):
        n1, n2 = random_net(m1, d, seed), random_net(m2, d, seed + 1)
        total = sum_networks(n1, n2)
        assert total.m == m1 + m2
        X = np.random.default_rng(seed).uniform(-1, 1, (d, 64))
        want = two_layer_eval_batch(n1, X) + two_layer_eval_batch(n2, X)
        # the rescaled terms are summed in another order: equal up to
        # rounding, relative to the largest value
        err = np.abs(two_layer_eval_batch(total, X) - want).max()
        assert err <= 1e-12 * max(1.0, np.abs(want).max())
        assert path_norm(total) == pytest.approx(path_norm(n1) + path_norm(n2), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sum_networks(random_net(2, 2, seed=11), random_net(2, 3, seed=12))


class TestFitResidualNet:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.X = rng.uniform(-1, 1, (2, 10))
        r = rng.standard_normal(10)
        self.r = r / np.linalg.norm(r)

    def test_interpolates_and_certifies(self):
        fit = fit_residual_net(self.X, self.r, m=1024, lambda_target=2e-5, seed=14)
        assert fit.interp_error <= 1e-8
        assert fit.lambda_emp >= fit.lambda_target / 2
        # certificate chain: path norm <= coefficient norm <= ||r|| / sigma_min
        assert fit.path_norm <= fit.coeff_norm + 1e-12
        assert fit.coeff_norm <= fit.certificate + 1e-12
        assert fit.certificate == pytest.approx(
            fit.residual_norm / fit.sigma_min_scaled, rel=1e-12
        )

    def test_network_evaluates_residual(self):
        fit = fit_residual_net(self.X, self.r, m=512, lambda_target=1e-5, seed=15)
        assert_allclose(two_layer_eval_batch(fit.net, self.X), self.r, atol=1e-9)

    def test_interp_error_comes_from_the_solve_not_an_evaluation(self, monkeypatch):
        # the solve's image Psi a_hat / sqrt(m) is the net's values at X, so the
        # fit evaluates no net; both measures of the gap agree to rounding
        calls = []
        monkeypatch.setattr(two_layer, "two_layer_eval_batch",
                            lambda *args: calls.append(args) or two_layer_eval_batch(*args))
        fit = fit_residual_net(self.X, self.r, m=512, lambda_target=1e-5, seed=15)
        assert calls == []
        evaluated = float(np.abs(two_layer_eval_batch(fit.net, self.X) - self.r).max())
        assert fit.interp_error == pytest.approx(evaluated, abs=1e-13)

    def test_easy_target_needs_one_draw(self):
        fit = fit_residual_net(self.X, self.r, m=2048, lambda_target=1e-8, seed=16)
        assert fit.resamples_used == 1

    def test_unreachable_floor_raises(self):
        with pytest.raises(ConcentrationFailureError) as err:
            fit_residual_net(self.X, self.r, m=64, lambda_target=1e6, seed=17)
        assert err.value.attempts == 16
        assert err.value.best_lambda < 5e5
        assert (err.value.m, err.value.n) == (64, self.X.shape[1])
        assert f"m=64, n={self.X.shape[1]})" in str(err.value)

    def test_underparametrized_rejected(self):
        with pytest.raises(UnderParametrizedError):
            fit_residual_net(self.X, self.r, m=4, lambda_target=1e-6, seed=18)

    def test_nonfinite_target_rejected(self):
        bad = self.r.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError):
            fit_residual_net(self.X, bad, m=64, lambda_target=1e-6, seed=19)

    def test_nonfinite_input_rejected(self):
        # the factor's eigh raises LinAlgError, itself a ValueError, on such
        # an input, so the message is matched
        bad = self.X.copy()
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="inputs X contain non-finite entries"):
            fit_residual_net(bad, self.r, m=64, lambda_target=1e-6, seed=19)


class TestApproximateTeacher:
    def test_one_atom_teacher_reproduced_exactly(self):
        # every draw repeats the single atom, so the net is the teacher
        f = make_teacher(3, 1, seed=20)
        X = np.random.default_rng(21).uniform(-1, 1, (3, 20))
        fit = approximate_teacher(f, 16, X, seed=22)
        assert_allclose(
            two_layer_eval_batch(fit.net, X), teacher_eval_batch(f, X), atol=1e-12
        )
        assert fit.empirical_risk <= 1e-24

    def test_tied_draws_keep_the_first(self):
        # with one atom every draw is the same net, so every score ties
        f = make_teacher(3, 1, seed=23)
        X = np.random.default_rng(24).uniform(-1, 1, (3, 20))
        assert approximate_teacher(f, 16, X, seed=25).draw_index == 0

    def test_iid_risk_shrinks_with_width(self):
        f = make_teacher(3, 32, seed=26)
        X = np.random.default_rng(27).uniform(-1, 1, (3, 24))
        wide = approximate_teacher(f, 512, X, seed=28).empirical_risk
        narrow = approximate_teacher(f, 4, X, seed=28).empirical_risk
        assert wide < narrow

    def test_iid_keeps_best_of_retry_draws(self):
        f = make_teacher(2, 6, seed=29)
        X = np.random.default_rng(30).uniform(-1, 1, (2, 10))
        best = approximate_teacher(f, 8, X, seed=31)
        _, _, first_risk = approximate_teacher_draws(f, 8, X, 31, n_retry_draws=1)
        assert best.empirical_risk <= first_risk
        assert 0 <= best.draw_index < 32

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        n_atoms=st.integers(16, 64),
        m1=st.integers(32, 600),
        n=st.integers(1, 130),
        seed=st.integers(0, 2**32),
    )
    def test_count_scoring_matches_per_draw_loop(self, d, n_atoms, m1, n, seed):
        # draws that differ only in atoms inactive on X tie exactly; the
        # oracle resolves such ties to the first draw, as the scoring must
        f = make_teacher(d, n_atoms, seed=seed)
        X = np.random.default_rng(seed).uniform(-1, 1, (d, n))
        fit = approximate_teacher(f, m1, X, seed=seed + 1)
        t, net, risk = approximate_teacher_draws(f, m1, X, seed + 1)
        assert fit.draw_index == t
        for got, want in ((fit.net.a, net.a), (fit.net.W, net.W)):
            np.testing.assert_array_equal(got, want)
        assert fit.empirical_risk == risk
        np.testing.assert_array_equal(fit.fitted, two_layer_eval_batch(net, X))

    def test_path_norm_bounded_by_max_coeff(self):
        f = make_teacher(2, 6, seed=32)
        X = np.random.default_rng(33).uniform(-1, 1, (2, 10))
        fit = approximate_teacher(f, 12, X, seed=34)
        assert fit.path_norm <= np.abs(f.coefficients).max() + 1e-12


class TestInterpolateTwoLayer:
    def test_composite_interpolates_with_additive_norm(self):
        f = make_teacher(2, 8, seed=35)
        data = sample_dataset(f, 10, seed=36)
        lam = reference_lambda_min(data.X, quadrature_rule(2, 50_000, derive_seed(37, 0)))
        fit = interpolate_two_layer(data, f, m1=32, m2=1024, seed=37, lambda_target=lam)
        assert fit.residual.lambda_target == lam
        assert fit.interp_error <= 1e-8
        assert (fit.net.m, fit.teacher.net.m, fit.residual.net.m) == (32 + 1024, 32, 1024)
        assert fit.path_norm == pytest.approx(
            fit.teacher.path_norm + fit.residual.path_norm, rel=1e-12
        )
        assert fit.norm_ratio == pytest.approx(fit.path_norm / fit.teacher_norm_upper)
        assert fit.residual.lambda_emp >= fit.residual.lambda_target / 2
        assert_allclose(two_layer_eval_batch(fit.net, data.X), data.y, atol=1e-8)
