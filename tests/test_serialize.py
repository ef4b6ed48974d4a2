import json
import math
from pathlib import Path

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
    FILE_KINDS,
    format_cell,
    from_dict,
    kind_of,
    read_file,
    to_dict,
    write_csv,
    write_file,
)
from minterp.cli import main
from minterp.two_layer import TwoLayerNet


@pytest.fixture
def teacher():
    return make_teacher(3, 5, seed=21)


class TestRoundTrips:
    def test_teacher(self, teacher):
        back = from_dict(to_dict(teacher))
        assert_array_equal(back.coefficients, teacher.coefficients)
        assert_array_equal(back.directions, teacher.directions)
        assert back.d == teacher.d

    def test_dataset(self, teacher):
        ds = sample_dataset(teacher, 7, seed=22)
        back = from_dict(to_dict(ds))
        assert_array_equal(back.X, ds.X)
        assert_array_equal(back.y, ds.y)
        assert back.seed == ds.seed

    def test_dataset_shape_mismatch(self, teacher):
        obj = to_dict(sample_dataset(teacher, 7, seed=22))
        obj["n"] = 6
        with pytest.raises(ValueError, match="does not match"):
            from_dict(obj)

    def test_two_layer(self):
        rng = np.random.default_rng(23)
        theta = TwoLayerNet(
            a=rng.standard_normal(4),
            W=np.column_stack([rng.standard_normal((4, 3)), rng.standard_normal(4)]),
        )
        back = from_dict(to_dict(theta))
        assert_array_equal(back.a, theta.a)
        assert_array_equal(back.W, theta.W)

    def test_resnet_canonical_injection_omitted(self):
        net = random_resnet(d=2, L=3, D=4, m=2, scale=0.4, seed=24)
        obj = to_dict(net)
        assert "V" not in obj
        back = from_dict(obj)
        assert_array_equal(back.V, net.V)
        assert back.L == net.L and back.D == net.D and back.m == net.m
        assert_array_equal(back.U, net.U)
        assert_array_equal(back.W, net.W)

    def test_resnet_explicit_injection_preserved(self):
        base = random_resnet(d=2, L=2, D=4, m=2, scale=0.4, seed=25)
        V = base.V.copy()
        V[0, 1] = 0.5
        net = ResNet(V=V, U=base.U, W=base.W, alpha=base.alpha)
        obj = to_dict(net)
        assert "V" in obj
        back = from_dict(obj)
        assert_array_equal(back.V, V)

    def test_resnet_layers_are_per_layer_lists(self):
        net = random_resnet(d=2, L=3, D=4, m=2, scale=0.4, seed=26)
        layers = to_dict(net)["layers"]
        assert len(layers) == 3
        assert layers[1] == {"U": net.U[1].tolist(), "W": net.W[1].tolist()}

    def test_resnet_empty_or_ragged_layers_rejected(self):
        obj = to_dict(random_resnet(d=2, L=3, D=4, m=2, scale=0.4, seed=27))
        with pytest.raises(ValueError):
            from_dict(dict(obj, layers=[]))
        ragged = [dict(layer) for layer in obj["layers"]]
        ragged[1]["U"] = [row[:1] for row in ragged[1]["U"]]  # width 1 in one layer
        with pytest.raises(ValueError):
            from_dict(dict(obj, layers=ragged))
        short = [dict(layer) for layer in obj["layers"]]
        short[2]["W"] = short[2]["W"][:1]  # one layer's W drops a neuron
        with pytest.raises(ValueError):
            from_dict(dict(obj, layers=short))

    def test_rf_model(self):
        fam = FeatureFamily(tag=RELU_L1SPHERE)
        params = fam.sample_params(3, 6, seed=26)
        model = RandomFeatureModel(
            family=fam, params=params, coefficients=np.arange(6.0)
        )
        back = from_dict(to_dict(model))
        assert back.family.tag == RELU_L1SPHERE
        assert_array_equal(back.params, model.params)
        assert_array_equal(back.coefficients, model.coefficients)

    def test_json_file_round_trip(self, tmp_path, teacher):
        path = write_file(tmp_path, teacher)
        assert path == tmp_path / "teacher.json"
        back = read_file(path, "teacher")
        assert_allclose(back.coefficients, teacher.coefficients)


def through_json(obj):
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
    return TwoLayerNet(a=draw(float_arrays((m,))), W=draw(float_arrays((m, d + 1))))


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
        back = through_json(net)
        for name in ("V", "U", "W", "alpha"):
            assert_array_equal(getattr(back, name), getattr(net, name))

    @settings(max_examples=40, deadline=None)
    @given(net=two_layer_nets())
    @example(net=TwoLayerNet(
        a=EDGE, W=np.column_stack([np.outer(EDGE, [1.0, 0.5]), EDGE[::-1]])))
    def test_two_layer(self, net):
        back = through_json(net)
        for name in ("a", "W"):
            assert_array_equal(getattr(back, name), getattr(net, name))

    @settings(max_examples=40, deadline=None)
    @given(model=rf_models())
    @example(model=RandomFeatureModel(family=FeatureFamily(tag=RANDOM_FOURIER, gamma=5e-324),
                                      params=np.outer(EDGE, [1.0, -1.0]), coefficients=EDGE))
    def test_rf_model(self, model):
        back = through_json(model)
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
        net2 = TwoLayerNet(a=np.ones(2), W=np.zeros((2, 4)))
        resnet = random_resnet(d=2, L=2, D=3, m=1, scale=0.3, seed=28)
        cases = {
            "teacher": to_dict(teacher),
            "dataset": to_dict(sample_dataset(teacher, 4, seed=29)),
            "two-layer": to_dict(net2),
            "resnet": to_dict(resnet),
            "rf": to_dict(model),
        }
        for kind, obj in cases.items():
            loaded = from_dict(obj, kind)
            assert type(loaded) is FILE_KINDS[kind].cls and kind_of(loaded) == kind
            other = "teacher" if kind == "dataset" else "dataset"
            with pytest.raises(ValueError, match=f"expected a {other} file, got a {kind} file"):
                from_dict(obj, other)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unrecognized"):
            from_dict({"foo": 1})
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            from_dict([1.0])


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


# Every file kind, every key and each bad value go through from_dict, the one path by which
# every command reads a file; one damaged file of each kind then goes through each command
# that reads it.  A path argument "@kind" names the file of that kind.
_READERS = {
    "teacher": [("gen-data", "@teacher"), ("fit", "two-layer", "@dataset", "@teacher"),
                ("fit", "resnet", "@dataset", "@teacher"), ("norms", "@teacher")],
    "dataset": [("fit", "rf", "@dataset"), ("fit", "two-layer", "@dataset", "@teacher"),
                ("fit", "resnet", "@dataset", "@teacher"), ("norms", "@dataset")],
    "two-layer": [("norms", "@two-layer")],
    "resnet": [("norms", "@resnet")],
    "rf": [("norms", "@rf")],
}
DROP = "drop"
_BAD_VALUES = [None, "x", [], [[]], 0, -1, [[1.0]], {}, DROP]
# These leave a valid file: another seed label, the default gamma, the canonical V.
_VALID = [("dataset", "seed", 0), ("dataset", "seed", -1), ("rf", "gamma", DROP),
          ("resnet", "V", DROP)]


def _mutated(obj, key, value):
    obj = dict(obj)
    if value == DROP:
        obj.pop(key, None)
    else:
        obj[key] = value
    return obj


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A valid file of every kind, written by the CLI at small sizes."""
    work = tmp_path_factory.mktemp("files")
    cfg = work / "config.json"
    cfg.write_text(json.dumps({"d_grid": [2], "n_grid": [8], "n_atoms": 8, "m1": 16,
                               "m2": 256, "quadrature": 20_000, "seed": 5}))
    out = ["--config", str(cfg), "--out", str(work)]
    assert main(["gen-teacher", *out]) == 0
    assert main(["gen-data", str(work / "teacher.json"), *out]) == 0
    data, teacher = str(work / "dataset.json"), str(work / "teacher.json")
    assert main(["fit", "rf", data, *out]) == 0
    for model in ("two-layer", "resnet"):
        assert main(["fit", model, data, teacher, *out]) == 0
    return {kind: work / spec.filename for kind, spec in FILE_KINDS.items()}


def _fails_cleanly(capsys, cli_files, tmp_path, command, kind=None, obj=None):
    """Run command with kind's file replaced by obj; it exits 2 with one error line."""
    paths = dict(cli_files)
    if kind is not None:
        paths[kind] = tmp_path / FILE_KINDS[kind].filename
        paths[kind].write_text(json.dumps(obj))
    capsys.readouterr()
    argv = [str(paths[arg[1:]]) if arg.startswith("@") else arg for arg in command]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


class TestMutatedFiles:
    """Each damaged file is a ValueError naming its kind, and its command exits 2 with one
    error line, never a traceback."""

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, spec in FILE_KINDS.items() for key in [*spec.header, *spec.keys]
    ])
    def test_bad_value(self, cli_files, kind, key):
        obj = json.loads(cli_files[kind].read_text())
        for value in _BAD_VALUES:
            if (kind, key, value) in _VALID:
                continue
            with pytest.raises(ValueError, match=f"{kind} file|unrecognized"):
                from_dict(_mutated(obj, key, value), kind)

    @pytest.mark.parametrize("kind, key, value", _VALID)
    def test_valid_mutations_load(self, cli_files, kind, key, value):
        obj = _mutated(json.loads(cli_files[kind].read_text()), key, value)
        assert kind_of(from_dict(obj, kind)) == kind

    @pytest.mark.parametrize("kind, command", [
        (kind, command) for kind, commands in _READERS.items() for command in commands
    ])
    def test_each_reading_command_exits_2(self, capsys, cli_files, tmp_path, kind, command):
        obj = _mutated(json.loads(cli_files[kind].read_text()), "d", None)
        err = _fails_cleanly(capsys, cli_files, tmp_path, command, kind, obj)
        assert err == f"error: {kind} file: d must be an integer, got NoneType\n"

    @pytest.mark.parametrize("kind, path", [
        ("teacher", ["atoms"]), ("dataset", ["X"]), ("dataset", ["y"]),
        ("two-layer", ["neurons"]), ("resnet", ["alpha"]), ("resnet", ["layers", 0, "U"]),
        ("resnet", ["layers", 0, "W"]), ("rf", ["params"]), ("rf", ["coefficients"]),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry(self, capsys, cli_files, tmp_path, kind, path, bad):
        obj = json.loads(cli_files[kind].read_text())
        array = obj
        for step in path:
            array = array[step]
        while isinstance(array[0], list):
            array = array[0]
        array[0] = bad
        err = _fails_cleanly(capsys, cli_files, tmp_path, _READERS[kind][0], kind, obj)
        assert err.startswith(f"error: {kind} file: ")
        assert f"{path[-1]} must be a nonempty rank-" in err

    @pytest.mark.parametrize("kind, key", [
        ("rf", "m"), ("dataset", "n"), ("two-layer", "m"), ("resnet", "L"), ("teacher", "d"),
    ])
    def test_header_off_by_one(self, capsys, cli_files, tmp_path, kind, key):
        obj = json.loads(cli_files[kind].read_text())
        obj[key] += 1
        err = _fails_cleanly(capsys, cli_files, tmp_path, _READERS[kind][0], kind, obj)
        assert f"{kind} file: " in err

    @pytest.mark.parametrize("command, message", [
        (("fit", "rf", "@teacher"), "expected a dataset file, got a teacher file"),
        (("fit", "two-layer", "@dataset", "@dataset"),
         "expected a teacher file, got a dataset file"),
        (("gen-data", "@dataset"), "expected a teacher file, got a dataset file"),
        (("gen-data", "@rf"), "expected a teacher file, got a rf file"),
        (("norms", "@dataset"), "norms expects a model file, got a dataset file"),
        (("fit", "rf", "@dataset", "@teacher"), "fit rf takes no teacher file"),
    ])
    def test_wrong_kind(self, capsys, cli_files, tmp_path, command, message):
        assert _fails_cleanly(capsys, cli_files, tmp_path, command) == f"error: {message}\n"

    @pytest.mark.parametrize("d, explicit_V", [(0, False), (-1, False), (0, True)])
    def test_resnet_without_inputs_rejected(self, cli_files, d, explicit_V):
        # with or without V, as ResNet itself: a net reads at least one input
        obj = json.loads(cli_files["resnet"].read_text())
        obj["d"] = d
        obj.pop("V", None)
        if explicit_V:
            obj["V"] = np.eye(obj["D"], d + 1).tolist()
        with pytest.raises(ValueError, match="resnet file: .*D >= d\\+1 >= 2"):
            from_dict(obj, "resnet")

    def test_teacher_without_inputs_rejected(self, capsys, cli_files, tmp_path):
        # atoms (a, c) with no input coordinate: gen-data would label inputs of
        # shape (0, n) and write "X": [], a dataset that its own reader rejects
        obj = {"d": 0, "atoms": [[0.5, 1.0], [-0.25, -1.0]]}
        with pytest.raises(ValueError, match="teacher file: .*d\\+1 >= 2"):
            from_dict(obj, "teacher")
        for command in (("gen-data", "@teacher"), ("norms", "@teacher")):
            err = _fails_cleanly(capsys, cli_files, tmp_path, command, "teacher", obj)
            assert err.startswith("error: teacher file: expected coefficients")

    def test_two_layer_one_column_rejected(self, capsys, cli_files, tmp_path):
        # each row is (a_j, b_j, c_j): a lone column is not both a and c, but d = 0 still loads
        obj = {"d": 0, "m": 2, "neurons": [[0.5], [0.25]]}
        with pytest.raises(ValueError, match="two-layer file: "):
            from_dict(obj, "two-layer")
        err = _fails_cleanly(capsys, cli_files, tmp_path, ("norms", "@two-layer"), "two-layer",
                             obj)
        assert err.startswith("error: two-layer file: expected a (m,) and W (m, d+1)")
        net = from_dict({"d": 0, "m": 2, "neurons": [[0.5, 1.0], [0.25, -1.0]]}, "two-layer")
        assert (net.d, net.m) == (0, 2)


def test_readme_file_table_matches_file_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, kind in FILE_KINDS.items():
        header = " ".join(f"`{key}`" for key in kind.header)
        assert f"| {name} | `{kind.filename}` | {header} |" in readme
