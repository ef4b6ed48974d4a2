"""Model and data files, each kind described once in FILE_KINDS, and deterministic CSV reports.

All floats are written with repr (shortest round-trip), keys are sorted,
and no timestamps or environment data are embedded, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .random_features import FeatureFamily, RandomFeatureModel
from .resnet import ResNet, canonical_injection
from .sampling import Dataset, TeacherFunction
from .two_layer import TwoLayerNet


@dataclass(frozen=True)
class FileKind:
    """One file kind.  ``header`` names integer counts, each equal to the object's attribute
    of that name.  ``keys`` maps every other key, the first marking the kind, to the rank of
    its float array, ``str`` or the keys of a list's objects.  ``pack`` gives their JSON
    values; ``unpack`` builds the object from the checked values, header included."""

    cls: type
    filename: str
    header: tuple
    keys: dict
    pack: Callable
    unpack: Callable
    optional: tuple = ()


def _pack_resnet(net: ResNet) -> dict:
    obj = {"alpha": net.alpha.tolist(),
           "layers": [{"U": U.tolist(), "W": W.tolist()} for U, W in zip(net.U, net.W)]}
    if not np.array_equal(net.V, canonical_injection(net.d, net.D)):
        obj["V"] = net.V.tolist()
    return obj


def _unpack_resnet(v: dict) -> ResNet:
    # the canonical V is sized by alpha, so the header's D sizes nothing before it is checked
    V = v["V"] if "V" in v else canonical_injection(v["d"], v["alpha"].shape[0])
    return ResNet(V=V, U=np.stack([layer["U"] for layer in v["layers"]]),
                  W=np.stack([layer["W"] for layer in v["layers"]]), alpha=v["alpha"])


FILE_KINDS = {
    "teacher": FileKind(
        TeacherFunction, "teacher.json", ("d",), {"atoms": 2},
        pack=lambda f: {"atoms": np.column_stack([f.coefficients, f.directions]).tolist()},
        unpack=lambda v: TeacherFunction(v["atoms"][:, 0], v["atoms"][:, 1:]),
    ),
    "dataset": FileKind(
        Dataset, "dataset.json", ("d", "n", "seed"), {"X": 2, "y": 1},
        pack=lambda ds: {"X": ds.X.tolist(), "y": ds.y.tolist()},
        unpack=lambda v: Dataset(X=v["X"], y=v["y"], seed=v["seed"]),
    ),
    "two-layer": FileKind(
        TwoLayerNet, "model_two_layer.json", ("d", "m"), {"neurons": 2},
        pack=lambda net: {"neurons": np.column_stack([net.a, net.W]).tolist()},
        unpack=lambda v: TwoLayerNet(a=v["neurons"][:, 0], W=v["neurons"][:, 1:]),
    ),
    "resnet": FileKind(
        ResNet, "model_resnet.json", ("d", "L", "D", "m"),
        {"layers": {"U": 2, "W": 2}, "alpha": 1, "V": 2},
        pack=_pack_resnet, unpack=_unpack_resnet, optional=("V",),
    ),
    "rf": FileKind(
        RandomFeatureModel, "model_rf.json", ("d", "m"),
        {"params": 2, "coefficients": 1, "family": str, "gamma": 0},
        pack=lambda model: {"family": model.family.tag, "gamma": model.family.gamma, "params":
                            model.params.tolist(), "coefficients": model.coefficients.tolist()},
        unpack=lambda v: RandomFeatureModel(
            family=FeatureFamily(tag=v["family"], gamma=float(v.get("gamma", 1.0))),
            params=v["params"], coefficients=v["coefficients"]),
        optional=("gamma",),
    ),
}


def kind_of(obj) -> str:
    """The FILE_KINDS name of a teacher, dataset or model object."""
    for name, kind in FILE_KINDS.items():
        if isinstance(obj, kind.cls):
            return name
    raise TypeError(f"no file kind holds a {type(obj).__name__}")


def to_dict(obj) -> dict:
    """The JSON object of a teacher, dataset or model: its header counts and packed keys."""
    kind = FILE_KINDS[kind_of(obj)]
    return {**{key: getattr(obj, key) for key in kind.header}, **kind.pack(obj)}


def _checked(obj: dict, where: str, key: str, spec):
    """obj[key] checked against spec (int, str, a rank or a list's specs) and converted."""
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    value, where = obj[key], f"{where}: {key}"
    if spec is int or spec is str:
        if type(value) is not spec:
            raise ValueError(f"{where} must be {'an integer' if spec is int else 'a string'}, "
                             f"got {type(value).__name__}")
        return value
    if isinstance(spec, dict):
        if not (isinstance(value, list) and value and all(isinstance(v, dict) for v in value)):
            raise ValueError(f"{where} must be a nonempty list of objects with keys {list(spec)}")
        return [{k: _checked(item, f"{where}[{i}]", k, s) for k, s in spec.items()}
                for i, item in enumerate(value)]
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = None
    if (array is None or array.dtype.kind not in "iuf" or array.ndim != spec
            or not array.size or not np.all(np.isfinite(array))):
        raise ValueError(f"{where} must be a nonempty rank-{spec} array of finite numbers")
    return np.asarray(array, dtype=float)


def from_dict(obj, *kinds):
    """Check a loaded file and build its object; ``kinds``, if given, are the kinds accepted.

    Every check, down to each header count against the built object, raises
    ValueError naming the kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"a model or data file must be a JSON object, got {type(obj).__name__}")
    name = next((name for name, kind in FILE_KINDS.items() if next(iter(kind.keys)) in obj), None)
    if name is None:
        raise ValueError(f"unrecognized model file with keys {sorted(obj)}")
    if kinds and name not in kinds:
        raise ValueError(f"expected a {' or '.join(kinds)} file, got a {name} file")
    kind, where = FILE_KINDS[name], f"{name} file"
    values = {key: _checked(obj, where, key, int) for key in kind.header}
    values.update((key, _checked(obj, where, key, spec)) for key, spec in kind.keys.items()
                  if key in obj or key not in kind.optional)
    try:
        loaded = kind.unpack(values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    for key in kind.header:
        if getattr(loaded, key) != values[key]:
            raise ValueError(f"{where}: header {key}={values[key]} does not match "
                             f"the loaded {key}={getattr(loaded, key)}")
    return loaded


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def read_file(path: str | Path, *kinds):
    """The checked object of a teacher, dataset or model file; see from_dict."""
    return from_dict(load_json(path), *kinds)


def write_file(directory: str | Path, obj) -> Path:
    """Write obj to its kind's file in directory and return the path."""
    path = Path(directory) / FILE_KINDS[kind_of(obj)].filename
    write_json_report(path, to_dict(obj))
    return path


def format_cell(value) -> str:
    """Deterministic CSV cell formatting; floats use shortest round-trip repr."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    path: str | Path,
    columns: list,
    rows: list,
    config_echo: dict,
    version: str,
) -> None:
    """CSV with one comment line carrying the resolved config and version.

    Rows are dicts; missing keys render as empty cells.  Everything about
    the output is a pure function of (columns, rows, config_echo, version).
    """
    lines = [
        "# config=" + json.dumps(config_echo, sort_keys=True) + " version=" + version,
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(
            format_cell(row[col]) if col in row and row[col] is not None else ""
            for col in columns
        ))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json_report(path: str | Path, obj: dict) -> None:
    """Write obj as sorted-key JSON: model, dataset and report files alike."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
