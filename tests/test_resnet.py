import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from minterp import (
    derive_seed,
    ResNet,
    canonical_injection,
    embed_two_layer,
    interpolate_resnet,
    make_teacher,
    pad_identity_layers,
    path_norm,
    random_resnet,
    quadrature_rule,
    reference_lambda_min,
    resnet_add,
    resnet_eval_batch,
    rng_from,
    sample_dataset,
    two_layer_eval_batch,
    weighted_path_norm,
)
from minterp import resnet
from minterp.two_layer import TwoLayerNet

from _oracles import (
    embed_two_layer_stacks,
    resnet_add_stacks,
    resnet_eval,
    resnet_eval_layers,
    weighted_path_norm_layers,
)


def norm_by_matrix_product(theta):
    # explicit product formula, the dual route to the vector recursion
    D = theta.D
    P = np.eye(D)
    for U, W in zip(theta.U, theta.W):
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

    def test_random_resnet_draws_layer_by_layer(self):
        # U_0, W_0, U_1, W_1, ..., then alpha: the seed stream of the verify suites
        net = random_resnet(2, L=3, D=4, m=2, scale=0.5, seed=7)
        rng = rng_from(7)
        for l in range(3):
            assert_array_equal(net.U[l], rng.normal(0.0, 0.5, size=(4, 2)))
            assert_array_equal(net.W[l], rng.normal(0.0, 0.5, size=(2, 4)))
        assert_array_equal(net.alpha, rng.normal(0.0, 1.0, size=4))

    def test_canonical_injection(self):
        V = canonical_injection(3, 6)
        assert V.shape == (6, 4)
        assert_allclose(V[:4], np.eye(4))
        assert_allclose(V[4:], 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ResNet(V=np.ones((2, 4)), U=np.ones((1, 2, 3)), W=np.ones((1, 3, 2)),
                   alpha=np.ones(2))  # D=2 < d+1=4
        with pytest.raises(ValueError, match="D >= d\\+1 >= 2"):
            ResNet(V=np.ones((3, 1)), U=np.ones((1, 3, 2)), W=np.ones((1, 2, 3)),
                   alpha=np.ones(3))  # d=0: no inputs

    @pytest.mark.parametrize("U_shape, W_shape", [
        ((3, 4, 2), (2, 2, 4)),  # W stacks fewer layers than U
        ((3, 4, 2), (3, 1, 4)),  # W's width differs from U's
        ((3, 4, 2), (3, 2, 5)),  # W reads a wider state than U writes
        ((3, 5, 2), (3, 2, 5)),  # U writes a wider state than V injects
        ((0, 4, 2), (0, 2, 4)),  # no layers
        ((4, 2), (2, 4)),  # one layer, not stacked
    ])
    def test_mismatched_stacks_rejected(self, U_shape, W_shape):
        with pytest.raises(ValueError):
            ResNet(V=canonical_injection(2, 4), U=np.ones(U_shape), W=np.ones(W_shape),
                   alpha=np.ones(4))


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

    @pytest.mark.parametrize("L1, L2", [(3, 3), (3, 7), (5, 2)])
    def test_stacks_match_per_layer_construction(self, L1, L2):
        net1 = random_resnet(2, L=L1, D=4, m=2, seed=11)
        net2 = embed_two_layer(random_two_layer(L2, 2, seed=12))
        total = resnet_add(net1, net2)
        U, W = resnet_add_stacks(net1, net2)
        assert_array_equal(total.U, U)
        assert_array_equal(total.W, W)
        assert_array_equal(total.V, np.vstack([net1.V, net2.V]))
        assert_array_equal(total.alpha, np.concatenate([net1.alpha, net2.alpha]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            resnet_add(random_resnet(2, 2, 4, 2, seed=8), random_resnet(3, 2, 5, 2, seed=9))


class TestEmbedTwoLayer:
    def test_value_equal_and_norm_exactly_tripled(self):
        rng = np.random.default_rng(10)
        theta = TwoLayerNet(
            a=rng.standard_normal(9),
            W=np.column_stack([rng.standard_normal((9, 3)), rng.standard_normal(9)]),
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

    def test_stacks_match_per_layer_construction(self):
        theta = TwoLayerNet(
            a=np.array([2.0, -1.5, 0.0]),
            W=np.array([[0.5, -0.5, 0.25], [1.0, 2.0, -1.0], [-3.0, 0.25, 4.0]]),
        )
        embedded = embed_two_layer(theta)
        U, W = embed_two_layer_stacks(theta)
        assert_array_equal(embedded.U, U)
        assert_array_equal(embedded.W, W)
        assert_array_equal(embedded.U[:, :, 0], [[0, 0, 0, 2.0], [0, 0, 0, -1.5], [0, 0, 0, 0]])
        assert_array_equal(embedded.W[1, 0], [1.0, 2.0, -1.0, 0.0])

    def test_single_neuron(self):
        theta = TwoLayerNet(a=np.array([2.0]), W=np.array([[0.5, -0.5, 0.25]]))
        embedded = embed_two_layer(theta)
        x = np.array([0.4, -0.8])
        assert resnet_eval(embedded, x) == pytest.approx(
            2.0 * max(0.5 * 0.4 + 0.5 * 0.8 + 0.25, 0.0), rel=1e-12
        )


def random_two_layer(m, d, seed):
    rng = rng_from(seed)
    return TwoLayerNet(
        a=rng.standard_normal(m),
        W=np.column_stack([rng.uniform(-1, 1, (m, d)), rng.uniform(-1, 1, m)]),
    )


def assert_same_values(got, want):
    # equal up to rounding, relative to the largest value: the routes
    # compared here sum the same terms in different orders
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


dims = st.integers(1, 3)
depths = st.integers(1, 7)
widths = st.integers(1, 40)
extra_dims = st.integers(0, 3)
seeds = st.integers(0, 2**32 - 2)


class TestResnetLaws:
    """Properties of the exact constructions the one-pass evaluation relies on."""

    @settings(max_examples=20, deadline=None)
    @given(d=dims, L=depths, pad=extra_dims, m=st.integers(1, 4),
           n=st.integers(1, 2100), seed=seeds)
    @example(d=3, L=5, pad=2, m=4, n=20, seed=0)
    @example(d=1, L=1, pad=0, m=1, n=1025, seed=2)
    @example(d=2, L=1, pad=1, m=4, n=454, seed=64)
    @example(d=2, L=1, pad=1, m=2, n=270, seed=593685)
    def test_random_nets_take_layer_loop(self, d, L, pad, m, n, seed):
        # random nets read what they write, so they cannot be flattened.
        # Matrix and per-point products round differently, so an output
        # near 0 (the pinned cases: ~1e-4, 4e-16 apart) needs the atol.
        net = random_resnet(d, L, d + 1 + pad, m, seed=seed)
        assert resnet._two_layer_form(net) is None
        X = rng_from(seed).uniform(-1, 1, (d, n))
        want = np.array([resnet_eval(net, X[:, i]) for i in range(n)])
        assert_allclose(resnet_eval_batch(net, X), want, rtol=1e-12, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(d=dims, ma=widths, mb=widths, n=st.integers(1, 2100), seed=seeds)
    @example(d=2, ma=1, mb=40, n=1024, seed=0)
    @example(d=3, ma=17, mb=3, n=2049, seed=1)
    def test_one_pass_matches_layer_loop(self, d, ma, mb, n, seed):
        # unequal widths give unequal depths, so one half is identity-padded
        net = resnet_add(embed_two_layer(random_two_layer(ma, d, seed)),
                         embed_two_layer(random_two_layer(mb, d, seed + 1)))
        assert resnet._two_layer_form(net) is not None
        X = rng_from(seed).uniform(-1, 1, (d, n))
        assert_same_values(resnet_eval_batch(net, X), resnet_eval_layers(net, X))

    @settings(max_examples=30, deadline=None)
    @given(d=dims, ma=widths, mb=widths, pad=st.integers(0, 9), seed=seeds)
    @example(d=1, ma=1, mb=1, pad=0, seed=0)
    def test_stacked_norm_matches_layer_recursion(self, d, ma, mb, pad, seed):
        # the stacked product sums the same per-layer terms in another order
        net = resnet_add(embed_two_layer(random_two_layer(ma, d, seed)),
                         embed_two_layer(random_two_layer(mb, d, seed + 1)))
        net = pad_identity_layers(net, net.L + pad)
        assert resnet._disjoint_stacks(net) is not None
        assert weighted_path_norm(net) == pytest.approx(weighted_path_norm_layers(net), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(d=dims, L=depths, extra=st.integers(0, 9), embedded=st.booleans(), seed=seeds)
    @example(d=2, L=3, extra=6, embedded=False, seed=2)
    @example(d=2, L=3, extra=6, embedded=True, seed=2)
    def test_padding_keeps_value_and_norm(self, d, L, extra, embedded, seed):
        if embedded:
            net = embed_two_layer(random_two_layer(L, d, seed))
        else:
            net = random_resnet(d, L, d + 2, 2, seed=seed)
        padded = pad_identity_layers(net, L + extra)
        assert padded.L == L + extra
        X = rng_from(seed).uniform(-1, 1, (d, 64))
        assert_allclose(
            resnet_eval_batch(padded, X), resnet_eval_batch(net, X), rtol=1e-12, atol=1e-15
        )
        assert weighted_path_norm(padded) == pytest.approx(weighted_path_norm(net), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(d=dims, L1=depths, L2=depths, pad1=extra_dims, pad2=extra_dims,
           m1=st.integers(1, 4), m2=st.integers(1, 4), seed=seeds)
    @example(d=2, L1=3, L2=7, pad1=1, pad2=3, m1=2, m2=4, seed=5)
    def test_add_is_additive(self, d, L1, L2, pad1, pad2, m1, m2, seed):
        net1 = random_resnet(d, L1, d + 1 + pad1, m1, seed=seed)
        net2 = random_resnet(d, L2, d + 1 + pad2, m2, seed=seed + 1)
        total = resnet_add(net1, net2)
        assert total.L == max(L1, L2)
        assert total.D == net1.D + net2.D
        X = rng_from(seed).uniform(-1, 1, (d, 64))
        assert_same_values(
            resnet_eval_batch(total, X), resnet_eval_batch(net1, X) + resnet_eval_batch(net2, X)
        )
        assert weighted_path_norm(total) == pytest.approx(
            weighted_path_norm(net1) + weighted_path_norm(net2), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(d=dims, ma=widths, mb=widths, seed=seeds)
    def test_sum_of_embeddings_adds_two_layer_values_and_norms(self, d, ma, mb, seed):
        a, b = random_two_layer(ma, d, seed), random_two_layer(mb, d, seed + 1)
        total = resnet_add(embed_two_layer(a), embed_two_layer(b))
        X = rng_from(seed).uniform(-1, 1, (d, 64))
        assert_same_values(
            resnet_eval_batch(total, X), two_layer_eval_batch(a, X) + two_layer_eval_batch(b, X)
        )
        assert weighted_path_norm(total) == pytest.approx(
            3.0 * (path_norm(a) + path_norm(b)), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 4), m=widths, seed=seeds)
    @example(d=3, m=9, seed=10)
    def test_embedding_keeps_value_and_triples_norm(self, d, m, seed):
        theta = random_two_layer(m, d, seed)
        embedded = embed_two_layer(theta)
        assert embedded.L == m
        assert embedded.D == d + 2
        X = rng_from(seed).uniform(-1, 1, (d, 200))
        assert_same_values(resnet_eval_batch(embedded, X), two_layer_eval_batch(theta, X))
        assert weighted_path_norm(embedded) == pytest.approx(
            3.0 * path_norm(theta), rel=1e-12
        )


class TestInterpolateResnet:
    def test_interpolates_with_norm_decomposition(self):
        f = make_teacher(2, 8, seed=17)
        data = sample_dataset(f, 10, seed=18)
        # teacher half: a small random resnet
        teacher_net = random_resnet(2, L=4, D=4, m=3, scale=0.3, seed=19)
        lam = reference_lambda_min(data.X, quadrature_rule(2, 50_000, derive_seed(20, 0)))
        fit = interpolate_resnet(data, teacher_net, m2=512, seed=20, lambda_target=lam)
        assert fit.residual.lambda_target == lam
        assert fit.interp_error <= 1e-8
        assert fit.surrogate_norm == weighted_path_norm(teacher_net)
        assert fit.weighted_norm == pytest.approx(
            fit.surrogate_norm + fit.embedded_norm, rel=1e-12
        )
        assert fit.embedded_norm == pytest.approx(3.0 * fit.residual.path_norm, rel=1e-12)
        assert fit.embedded_norm <= fit.certificate + 1e-12
        assert fit.certificate == 3.0 * fit.residual.certificate
        assert fit.residual.lambda_emp >= fit.residual.lambda_target / 2
        assert_allclose(resnet_eval_batch(fit.net, data.X), data.y, atol=1e-8)
        assert np.array_equal(fit.fitted, resnet_eval_batch(fit.net, data.X))
