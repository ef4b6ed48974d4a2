import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from minterp import (
    RELU_L1SPHERE,
    FeatureFamily,
    RandomFeatureModel,
    make_teacher,
    random_resnet,
    rescale_teacher,
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
    return rescale_teacher(make_teacher(3, 5, 2.0, seed=21))


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
        for (U1, W1), (U2, W2) in zip(back.layers, net.layers):
            assert_array_equal(U1, U2)
            assert_array_equal(W1, W2)

    def test_resnet_explicit_injection_preserved(self):
        from minterp import ResNet

        base = random_resnet(d=2, L=2, D=4, m=2, scale=0.4, seed=25)
        V = base.V.copy()
        V[0, 1] = 0.5
        net = ResNet(V=V, layers=base.layers, alpha=base.alpha)
        obj = resnet_to_dict(net)
        assert "V" in obj
        back = resnet_from_dict(obj)
        assert_array_equal(back.V, V)

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
