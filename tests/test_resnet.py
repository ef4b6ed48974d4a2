import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minterp import (
    ResNet,
    canonical_injection,
    depth_requirement,
    embed_two_layer,
    interpolate_resnet,
    make_teacher,
    pad_identity_layers,
    path_norm,
    random_resnet,
    rescale_teacher,
    resnet_add,
    resnet_eval_batch,
    sample_dataset,
    two_layer_eval_batch,
    weighted_path_norm,
)
from minterp.two_layer import TwoLayerNet

from _oracles import resnet_eval


def norm_by_matrix_product(theta):
    # explicit product formula, the dual route to the vector recursion
    D = theta.D
    P = np.eye(D)
    for U, W in theta.layers:
        P = P @ (np.eye(D) + 3.0 / theta.L * np.abs(U) @ np.abs(W))
    return float(np.abs(theta.alpha) @ P @ np.abs(theta.V) @ np.ones(theta.d + 1))


class TestEvalAndNorm:
    def test_eval_matches_loop(self):
        net = random_resnet(3, L=5, D=6, m=4, seed=0)
        X = np.random.default_rng(1).uniform(-1, 1, (3, 20))
        want = np.array([resnet_eval(net, X[:, i]) for i in range(20)])
        assert_allclose(resnet_eval_batch(net, X), want, rtol=1e-12)

    def test_weighted_norm_matches_matrix_product(self):
        for seed in range(5):
            net = random_resnet(2, L=4, D=5, m=3, seed=seed)
            assert weighted_path_norm(net) == pytest.approx(
                norm_by_matrix_product(net), rel=1e-12
            )

    def test_canonical_injection(self):
        V = canonical_injection(3, 6)
        assert V.shape == (6, 4)
        assert_allclose(V[:4], np.eye(4))
        assert_allclose(V[4:], 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ResNet(V=np.ones((2, 4)), layers=((np.ones((2, 3)), np.ones((3, 2))),),
                   alpha=np.ones(2))  # D=2 < d+1=4


class TestPadIdentityLayers:
    def test_function_and_norm_invariant(self):
        net = random_resnet(2, L=3, D=4, m=2, seed=2)
        padded = pad_identity_layers(net, 9)
        assert padded.L == 9
        X = np.random.default_rng(3).uniform(-1, 1, (2, 50))
        assert_allclose(
            resnet_eval_batch(padded, X), resnet_eval_batch(net, X), rtol=1e-12, atol=1e-15
        )
        assert weighted_path_norm(padded) == pytest.approx(
            weighted_path_norm(net), rel=1e-12
        )

    def test_cannot_shrink(self):
        net = random_resnet(2, L=4, D=4, m=2, seed=4)
        with pytest.raises(ValueError):
            pad_identity_layers(net, 3)


class TestResnetAdd:
    def test_value_and_norm_exactly_additive(self):
        net1 = random_resnet(2, L=3, D=4, m=2, seed=5)
        net2 = random_resnet(2, L=7, D=6, m=4, seed=6)
        total = resnet_add(net1, net2)
        assert total.L == 7
        assert total.D == 10
        X = np.random.default_rng(7).uniform(-1, 1, (2, 100))
        want = resnet_eval_batch(net1, X) + resnet_eval_batch(net2, X)
        got = resnet_eval_batch(total, X)
        assert np.abs(want - got).max() <= 1e-12 * max(1.0, np.abs(want).max())
        norm_sum = weighted_path_norm(net1) + weighted_path_norm(net2)
        assert weighted_path_norm(total) == pytest.approx(norm_sum, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            resnet_add(random_resnet(2, 2, 4, 2, seed=8), random_resnet(3, 2, 5, 2, seed=9))


class TestEmbedTwoLayer:
    def test_value_equal_and_norm_exactly_tripled(self):
        rng = np.random.default_rng(10)
        theta = TwoLayerNet(
            a=rng.standard_normal(9),
            B=rng.standard_normal((9, 3)),
            c=rng.standard_normal(9),
        )
        embedded = embed_two_layer(theta)
        assert embedded.L == 9
        assert embedded.D == 5  # d + 2
        X = rng.uniform(-1, 1, (3, 200))
        want = two_layer_eval_batch(theta, X)
        got = resnet_eval_batch(embedded, X)
        assert np.abs(want - got).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert weighted_path_norm(embedded) == pytest.approx(
            3.0 * path_norm(theta), rel=1e-12
        )

    def test_single_neuron(self):
        theta = TwoLayerNet(
            a=np.array([2.0]), B=np.array([[0.5, -0.5]]), c=np.array([0.25])
        )
        embedded = embed_two_layer(theta)
        x = np.array([0.4, -0.8])
        assert resnet_eval(embedded, x) == pytest.approx(
            2.0 * max(0.5 * 0.4 + 0.5 * 0.8 + 0.25, 0.0), rel=1e-12
        )


class TestInterpolateResnet:
    def test_interpolates_with_norm_decomposition(self):
        f = rescale_teacher(make_teacher(2, 8, 1.0, seed=17))
        data = sample_dataset(f, 10, seed=18)
        # teacher half: a small random resnet
        teacher_net = random_resnet(2, L=4, D=4, m=3, scale=0.3, seed=19)
        fit = interpolate_resnet(data, teacher_net, m2=512, seed=20, lambda_quadrature=50_000)
        assert fit.interp_error <= 1e-8
        assert fit.surrogate_norm == weighted_path_norm(teacher_net)
        assert fit.weighted_norm == pytest.approx(
            fit.surrogate_norm + fit.embedded_norm, rel=1e-12
        )
        assert fit.embedded_norm == pytest.approx(3.0 * fit.residual_path_norm, rel=1e-12)
        assert fit.embedded_norm <= fit.certificate + 1e-12
        assert fit.lambda_emp >= fit.lambda_target / 2
        assert_allclose(resnet_eval_batch(fit.net, data.X), data.y, atol=1e-8)
        assert np.array_equal(fit.fitted, resnet_eval_batch(fit.net, data.X))


class TestDepthRequirement:
    def test_all_ones_case(self):
        # max(1, 96^{3/2}, 2, ln 2) = 96^{3/2}
        want = 96.0 ** 1.5
        assert depth_requirement(1, 1, 1, 1.0, 1.0, 1.0) == pytest.approx(want)

    def test_scales_with_constant(self):
        base = depth_requirement(4, 8, 3, 0.5, 1.0, 2.0)
        assert depth_requirement(4, 8, 3, 0.5, 1.0, 2.0, C_universal=3.0) == pytest.approx(
            3.0 * base
        )

    def test_monotone_in_n(self):
        # with m = D = 1 the n-independent term is 1, so the eigenvalue
        # terms take over and the requirement grows strictly with n
        lo = depth_requirement(4, 1, 1, 1e-3, 1.0, 1.0)
        hi = depth_requirement(64, 1, 1, 1e-3, 1.0, 1.0)
        assert hi > lo
        assert lo == pytest.approx((96.0 * 4 / 1e-3) ** 1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            depth_requirement(0, 1, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            depth_requirement(1, 1, 1, 0.0, 1.0, 1.0)
