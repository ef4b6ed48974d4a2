import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from minterp import (
    RANDOM_FOURIER,
    RELU_L1SPHERE,
    FeatureFamily,
    RandomFeatureModel,
    ResNet,
    canonical_injection,
    make_teacher,
    random_resnet,
    sample_dataset,
)
from minterp.serialize import (
    dataset_from_dict,
    dataset_to_dict,
    detect_model_kind,
    format_cell,
    load_json,
    resnet_from_dict,
    resnet_to_dict,
    rf_model_from_dict,
    rf_model_to_dict,
    teacher_from_dict,
    teacher_to_dict,
    two_layer_from_dict,
    two_layer_to_dict,
    write_csv,
    write_json_report,
)
from minterp.two_layer import TwoLayerNet


@pytest.fixture
def teacher():
    return make_teacher(3, 5, seed=21)


class TestRoundTrips:
    def test_teacher(self, teacher):
        back = teacher_from_dict(teacher_to_dict(teacher))
        assert_array_equal(back.coefficients, teacher.coefficients)
        assert_array_equal(back.directions, teacher.directions)
        assert back.d == teacher.d

    def test_dataset(self, teacher):
        ds = sample_dataset(teacher, 7, seed=22)
        back = dataset_from_dict(dataset_to_dict(ds))
        assert_array_equal(back.X, ds.X)
        assert_array_equal(back.y, ds.y)
        assert back.seed == ds.seed

    def test_dataset_shape_mismatch(self, teacher):
        obj = dataset_to_dict(sample_dataset(teacher, 7, seed=22))
        obj["n"] = 6
        with pytest.raises(ValueError, match="does not match"):
            dataset_from_dict(obj)

    def test_two_layer(self):
        rng = np.random.default_rng(23)
        theta = TwoLayerNet(
            a=rng.standard_normal(4),
            B=rng.standard_normal((4, 3)),
            c=rng.standard_normal(4),
        )
        back = two_layer_from_dict(two_layer_to_dict(theta))
        assert_array_equal(back.a, theta.a)
        assert_array_equal(back.B, theta.B)
        assert_array_equal(back.c, theta.c)

    def test_resnet_canonical_injection_omitted(self):
        net = random_resnet(d=2, L=3, D=4, m=2, scale=0.4, seed=24)
        obj = resnet_to_dict(net)
        assert "V" not in obj
        back = resnet_from_dict(obj)
        assert_array_equal(back.V, net.V)
        assert back.L == net.L and back.D == net.D and back.m == net.m
        assert_array_equal(back.U, net.U)
        assert_array_equal(back.W, net.W)

    def test_resnet_explicit_injection_preserved(self):
        base = random_resnet(d=2, L=2, D=4, m=2, scale=0.4, seed=25)
        V = base.V.copy()
        V[0, 1] = 0.5
        net = ResNet(V=V, U=base.U, W=base.W, alpha=base.alpha)
        obj = resnet_to_dict(net)
        assert "V" in obj
        back = resnet_from_dict(obj)
        assert_array_equal(back.V, V)

    def test_resnet_layers_are_per_layer_lists(self):
        net = random_resnet(d=2, L=3, D=4, m=2, scale=0.4, seed=26)
        layers = resnet_to_dict(net)["layers"]
        assert len(layers) == 3
        assert layers[1] == {"U": net.U[1].tolist(), "W": net.W[1].tolist()}

    def test_resnet_empty_or_ragged_layers_rejected(self):
        obj = resnet_to_dict(random_resnet(d=2, L=3, D=4, m=2, scale=0.4, seed=27))
        with pytest.raises(ValueError):
            resnet_from_dict(dict(obj, layers=[]))
        ragged = [dict(layer) for layer in obj["layers"]]
        ragged[1]["U"] = [row[:1] for row in ragged[1]["U"]]  # width 1 in one layer
        with pytest.raises(ValueError):
            resnet_from_dict(dict(obj, layers=ragged))
        short = [dict(layer) for layer in obj["layers"]]
        short[2]["W"] = short[2]["W"][:1]  # one layer's W drops a neuron
        with pytest.raises(ValueError):
            resnet_from_dict(dict(obj, layers=short))

    def test_rf_model(self):
        fam = FeatureFamily(tag=RELU_L1SPHERE)
        params = fam.sample_params(3, 6, seed=26)
        model = RandomFeatureModel(
            family=fam, params=params, coefficients=np.arange(6.0)
        )
        back = rf_model_from_dict(rf_model_to_dict(model))
        assert back.family.tag == RELU_L1SPHERE
        assert_array_equal(back.params, model.params)
        assert_array_equal(back.coefficients, model.coefficients)

    def test_json_file_round_trip(self, tmp_path, teacher):
        path = tmp_path / "teacher.json"
        write_json_report(path, teacher_to_dict(teacher))
        back = teacher_from_dict(load_json(path))
        assert_allclose(back.coefficients, teacher.coefficients)


def through_json(to_dict, from_dict, obj):
    return from_dict(json.loads(json.dumps(to_dict(obj), sort_keys=True)))


# every finite double, subnormals and signed zeros included
finite = st.floats(allow_nan=False, allow_infinity=False)
EDGE = np.array([5e-324, -0.0, 1.7976931348623157e308, 0.1, -2.2250738585072014e-308])


def float_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite)


@st.composite
def resnets(draw):
    d, L, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    D = d + 1 + draw(st.integers(0, 2))
    V = canonical_injection(d, D) if draw(st.booleans()) else draw(float_arrays((D, d + 1)))
    return ResNet(V=V, U=draw(float_arrays((L, D, m))), W=draw(float_arrays((L, m, D))),
                  alpha=draw(float_arrays((D,))))


@st.composite
def two_layer_nets(draw):
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return TwoLayerNet(a=draw(float_arrays((m,))), B=draw(float_arrays((m, d))),
                       c=draw(float_arrays((m,))))


@st.composite
def rf_models(draw):
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    family = FeatureFamily(
        tag=draw(st.sampled_from([RELU_L1SPHERE, RANDOM_FOURIER])),
        gamma=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    )
    return RandomFeatureModel(family=family, params=draw(float_arrays((m, d + 1))),
                              coefficients=draw(float_arrays((m,))))


class TestJsonRoundTripsAreExact:
    """to_dict -> json.dumps -> json.loads -> from_dict returns the same arrays."""

    @settings(max_examples=40, deadline=None)
    @given(net=resnets())
    @example(net=ResNet(V=np.outer(EDGE, [1.0, -1.0]), U=EDGE.reshape(1, 5, 1),
                        W=EDGE[::-1].reshape(1, 1, 5), alpha=EDGE))
    def test_resnet(self, net):
        back = through_json(resnet_to_dict, resnet_from_dict, net)
        for name in ("V", "U", "W", "alpha"):
            assert_array_equal(getattr(back, name), getattr(net, name))

    @settings(max_examples=40, deadline=None)
    @given(net=two_layer_nets())
    @example(net=TwoLayerNet(a=EDGE, B=np.outer(EDGE, [1.0, 0.5]), c=EDGE[::-1]))
    def test_two_layer(self, net):
        back = through_json(two_layer_to_dict, two_layer_from_dict, net)
        for name in ("a", "B", "c"):
            assert_array_equal(getattr(back, name), getattr(net, name))

    @settings(max_examples=40, deadline=None)
    @given(model=rf_models())
    @example(model=RandomFeatureModel(family=FeatureFamily(tag=RANDOM_FOURIER, gamma=5e-324),
                                      params=np.outer(EDGE, [1.0, -1.0]), coefficients=EDGE))
    def test_rf_model(self, model):
        back = through_json(rf_model_to_dict, rf_model_from_dict, model)
        assert back.family == model.family
        assert_array_equal(back.params, model.params)
        assert_array_equal(back.coefficients, model.coefficients)


class TestDetectModelKind:
    def test_all_kinds(self, teacher):
        fam = FeatureFamily(tag=RELU_L1SPHERE)
        model = RandomFeatureModel(
            family=fam,
            params=fam.sample_params(3, 4, seed=27),
            coefficients=np.zeros(4),
        )
        net2 = TwoLayerNet(a=np.ones(2), B=np.zeros((2, 3)), c=np.zeros(2))
        resnet = random_resnet(d=2, L=2, D=3, m=1, scale=0.3, seed=28)
        cases = {
            "teacher": teacher_to_dict(teacher),
            "dataset": dataset_to_dict(sample_dataset(teacher, 4, seed=29)),
            "two-layer": two_layer_to_dict(net2),
            "resnet": resnet_to_dict(resnet),
            "rf": rf_model_to_dict(model),
        }
        for kind, obj in cases.items():
            assert detect_model_kind(obj) == kind

    def test_unknown(self):
        with pytest.raises(ValueError, match="unrecognized"):
            detect_model_kind({"foo": 1})


class TestCsv:
    def test_format_cell(self):
        assert format_cell(True) == "true"
        assert format_cell(np.bool_(False)) == "false"
        assert format_cell(7) == "7"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(1 / 3)) == repr(1 / 3)
        assert format_cell("rf") == "rf"

    def test_write_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(
            path,
            columns=["a", "b", "c"],
            rows=[{"a": 1, "b": 0.5}, {"a": 2, "b": None, "c": "x"}],
            config_echo={"seed": 0, "trials": 2},
            version="0.1.0",
        )
        lines = path.read_text().splitlines()
        assert lines[0] == '# config={"seed": 0, "trials": 2} version=0.1.0'
        assert lines[1] == "a,b,c"
        assert lines[2] == "1,0.5,"
        assert lines[3] == "2,,x"

    def test_write_csv_deterministic_bytes(self, tmp_path):
        rows = [{"a": i, "b": i / 3} for i in range(5)]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for p in (p1, p2):
            write_csv(p, ["a", "b"], rows, {"seed": 1}, "0.1.0")
        assert p1.read_bytes() == p2.read_bytes()
