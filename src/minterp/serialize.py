"""JSON-compatible model/data files and deterministic CSV reports.

All floats are written with repr (shortest round-trip), keys are sorted,
and no timestamps or environment data are embedded, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .random_features import FeatureFamily, RandomFeatureModel
from .resnet import ResNet, canonical_injection
from .sampling import Dataset, TeacherFunction
from .two_layer import TwoLayerNet


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "d": ds.d,
        "n": ds.n,
        "seed": ds.seed,
        "X": [list(map(float, row)) for row in ds.X],
        "y": [float(v) for v in ds.y],
    }


def dataset_from_dict(obj: dict) -> Dataset:
    X = np.asarray(obj["X"], dtype=float)
    y = np.asarray(obj["y"], dtype=float)
    if X.shape != (obj["d"], obj["n"]):
        raise ValueError(f"X shape {X.shape} does not match d={obj['d']}, n={obj['n']}")
    return Dataset(X=X, y=y, seed=int(obj["seed"]))


def teacher_to_dict(f: TeacherFunction) -> dict:
    atoms = [
        [float(a)] + [float(v) for v in w]
        for a, w in zip(f.coefficients, f.directions)
    ]
    return {"d": f.d, "atoms": atoms}


def teacher_from_dict(obj: dict) -> TeacherFunction:
    atoms = np.asarray(obj["atoms"], dtype=float)
    return TeacherFunction(
        coefficients=atoms[:, 0], directions=atoms[:, 1:], d=int(obj["d"])
    )


def two_layer_to_dict(theta: TwoLayerNet) -> dict:
    neurons = [
        [float(a)] + [float(v) for v in b] + [float(c)]
        for a, b, c in zip(theta.a, theta.B, theta.c)
    ]
    return {"d": theta.d, "m": theta.m, "neurons": neurons}


def two_layer_from_dict(obj: dict) -> TwoLayerNet:
    neurons = np.asarray(obj["neurons"], dtype=float)
    if neurons.shape != (obj["m"], obj["d"] + 2):
        raise ValueError(f"neuron array shape {neurons.shape} does not match header")
    return TwoLayerNet(a=neurons[:, 0], B=neurons[:, 1:-1], c=neurons[:, -1])


def resnet_to_dict(theta: ResNet) -> dict:
    obj = {
        "d": theta.d,
        "L": theta.L,
        "D": theta.D,
        "m": theta.m,
        "alpha": [float(v) for v in theta.alpha],
        "layers": [
            {
                "U": [list(map(float, row)) for row in U],
                "W": [list(map(float, row)) for row in W],
            }
            for U, W in zip(theta.U, theta.W)
        ],
    }
    canonical = canonical_injection(theta.d, theta.D)
    if not np.array_equal(theta.V, canonical):
        obj["V"] = [list(map(float, row)) for row in theta.V]
    return obj


def resnet_from_dict(obj: dict) -> ResNet:
    """Rebuild the stacks from per-layer U/W lists; ragged or no layers raise ValueError."""
    U = np.asarray([layer["U"] for layer in obj["layers"]], dtype=float)
    W = np.asarray([layer["W"] for layer in obj["layers"]], dtype=float)
    if "V" in obj:
        V = np.asarray(obj["V"], dtype=float)
    else:
        V = canonical_injection(int(obj["d"]), int(obj["D"]))
    return ResNet(V=V, U=U, W=W, alpha=np.asarray(obj["alpha"], dtype=float))


def rf_model_to_dict(model: RandomFeatureModel) -> dict:
    return {
        "d": model.d,
        "m": model.m,
        "family": model.family.tag,
        "gamma": model.family.gamma,
        "params": [list(map(float, row)) for row in model.params],
        "coefficients": [float(v) for v in model.coefficients],
    }


def rf_model_from_dict(obj: dict) -> RandomFeatureModel:
    family = FeatureFamily(tag=obj["family"], gamma=float(obj.get("gamma", 1.0)))
    return RandomFeatureModel(
        family=family,
        params=np.asarray(obj["params"], dtype=float),
        coefficients=np.asarray(obj["coefficients"], dtype=float),
    )


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def detect_model_kind(obj: dict) -> str:
    """Classify a loaded JSON object by its schema keys."""
    if "atoms" in obj:
        return "teacher"
    if "neurons" in obj:
        return "two-layer"
    if "layers" in obj:
        return "resnet"
    if "params" in obj and "coefficients" in obj:
        return "rf"
    if "X" in obj and "y" in obj:
        return "dataset"
    raise ValueError(f"unrecognized model file with keys {sorted(obj)}")


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
