"""Command-line harness for dataset generation, fitting, and experiment suites.

Config files are JSON objects whose keys are ExperimentConfig fields; --seed,
and the study commands' --trials, override the file.  --out (the output
directory) and --threads are run settings outside the config.
Every output embeds the resolved config and the package version, and identical
(config, seed) pairs produce byte-identical files regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._version import VERSION
from .errors import MinterpError
from .experiments import (
    MODELS,
    VERIFY_SELECTORS,
    ExperimentConfig,
    fit_model,
    one_blas_thread,
    run_study,
    study_rule,
    write_study,
)
from .resnet import resnet_eval_batch, weighted_path_norm
from .sampling import make_teacher, sample_dataset, teacher_eval_batch
from .sampling import barron_norm_upper
from .seeding import derive_seed, rng_from
from .serialize import kind_of, load_json, read_file, write_csv, write_file, write_json_report
from .two_layer import path_norm, two_layer_eval_batch


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory (default .)")
    parser.set_defaults(trials=None)  # set by --trials on the study commands


def _add_study(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--trials", type=int, default=None, help="trial count override")
    parser.add_argument("--threads", type=int, default=1, help="trial workers: the caller plus helpers")


def _load_config(args, **forced) -> ExperimentConfig:
    obj = load_json(args.config) if args.config else {}
    if isinstance(obj, dict):  # from_dict rejects anything else
        flags = {"seed": args.seed, "trials": args.trials}
        obj = {**obj, **{k: v for k, v in flags.items() if v is not None}, **forced}
    return ExperimentConfig.from_dict(obj)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_teacher(args) -> int:
    config = _load_config(args)
    teacher = make_teacher(config.d_grid[0], config.n_atoms, derive_seed(config.seed, 0))
    print(f"wrote {write_file(_out_dir(args), teacher)}")
    return 0


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    if len(config.n_grid) != 1:
        raise ValueError(f"gen-data draws one sample size, got n_grid {config.n_grid}")
    teacher = read_file(args.teacher, "teacher")
    data = sample_dataset(teacher, config.n_grid[0], derive_seed(config.seed, 1))
    print(f"wrote {write_file(_out_dir(args), data)}")
    return 0


# Per family: the report keys with the attribute path into the family's fit each one reads.
_FIT_OUTPUTS = {
    "rf": {
        "m": "model.m", "coeff_norm": "coeff_norm", "norm_radius": "norm_radius",
        "interp_error": "interp_error",
    },
    "two-layer": {
        "m1": "teacher.net.m", "m2": "residual.net.m", "path_norm": "path_norm",
        "teacher_norm_upper": "teacher_norm_upper", "norm_ratio": "norm_ratio",
        "interp_error": "interp_error", "lambda_target": "residual.lambda_target",
        "lambda_emp": "residual.lambda_emp", "resamples_used": "residual.resamples_used",
    },
    "resnet": {
        "L": "net.L", "D": "net.D", "m": "net.m", "weighted_path_norm": "weighted_norm",
        "surrogate_norm": "surrogate_norm", "embedded_norm": "embedded_norm",
        "interp_error": "interp_error", "lambda_target": "residual.lambda_target",
        "lambda_emp": "residual.lambda_emp", "resamples_used": "residual.resamples_used",
        "certificate": "certificate",
    },
}


def _cmd_fit(args) -> int:
    config = _load_config(args)
    data = read_file(args.data, "dataset")
    if args.model == "rf" and args.teacher is not None:
        raise ValueError("fit rf takes no teacher file")
    if args.model != "rf" and args.teacher is None:
        raise ValueError(f"fit {args.model} needs a teacher file")
    teacher = None if args.teacher is None else read_file(args.teacher, "teacher")
    # The quadrature rule is drawn at the dataset's d, which the file's d_grid need not name.
    with one_blas_thread:
        fit = fit_model(
            config, args.model, data, teacher, config.m2, derive_seed(config.seed, 2),
            derive_seed(config.seed, 3), None if args.model == "rf" else study_rule(config, data.d),
        )
    out = _out_dir(args)
    model_path = write_file(out, fit.model)
    report = {"kind": args.model}
    report.update((key, attrgetter(attr)(fit.fit))
                  for key, attr in _FIT_OUTPUTS[args.model].items())
    report_path = out / f"fit_report_{args.model.replace('-', '_')}.json"
    write_json_report(
        report_path, {"version": VERSION, "config": config.echo(), "report": report}
    )
    print(f"wrote {model_path}")
    print(f"wrote {report_path}")
    print(f"fit {args.model}: interp_error={report['interp_error']!r}")
    return 0


# Per study kind: the one-line account of a finished run.
_STUDY_NOTES = {
    "verify-lemma": lambda r: f"verify {r.config.lemma}: pass fraction {r.pass_fraction!r}",
    "scale-study": lambda r: "scale-study: " + (
        f"slope {r.summary['slope']!r}" if "slope" in r.summary else r.summary["slope_flag"]
    ),
    "bound-audit":
        lambda r: f"bound-audit: bound pass fraction {r.summary['bound_pass_fraction']!r}",
}


def _cmd_study(args) -> int:
    forced = {"kind": args.kind}
    if args.kind == "verify-lemma":
        forced["lemma"] = args.lemma
    config = _load_config(args, **forced)
    result = run_study(config, threads=args.threads)
    for path in write_study(result, _out_dir(args)):
        print(f"wrote {path}")
    print(f"{_STUDY_NOTES[args.kind](result)} over {len(result.rows)} rows "
          f"({result.failures} failures)")
    return 0


# Per model-file kind: shape columns, norm column, norm of the loaded
# object, and its batch evaluator on a (d, n) input matrix.
_NORMS = {
    "resnet": (("L", "D", "m"), "weighted_path_norm", weighted_path_norm, resnet_eval_batch),
    "two-layer": (("m", "d"), "path_norm", path_norm, two_layer_eval_batch),
    "rf": (("m", "d"), "norm_radius", attrgetter("norm_radius"),
           lambda model, X: model.predict(X)),
    "teacher": (("n_atoms", "d"), "barron_norm_upper", barron_norm_upper, teacher_eval_batch),
}


def _cmd_norms(args) -> int:
    config = _load_config(args)
    net = read_file(args.model_file)
    kind = kind_of(net)
    if kind not in _NORMS:
        raise ValueError(f"norms expects a model file, got a {kind} file")
    shape, norm_name, norm, evaluate = _NORMS[kind]
    net_id = Path(args.model_file).stem
    X = rng_from(derive_seed(config.seed, 0)).uniform(-1.0, 1.0, size=(net.d, 128))
    row = {"net_id": net_id, **{key: getattr(net, key) for key in shape},
           norm_name: norm(net), "eval_checksum": float(np.sum(evaluate(net, X)))}

    path = _out_dir(args) / f"norms_{net_id}.csv"
    write_csv(path, ["net_id", *shape, norm_name, "eval_checksum"], [row], config.echo(), VERSION)
    print(f"wrote {path}")
    print(f"norms {net_id}: {norm_name}={row[norm_name]!r} eval_checksum={row['eval_checksum']!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minterp",
        description="Minimum-norm interpolation constructions and their verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"minterp {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-teacher", help="sample a finite-atom teacher function")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_teacher)

    p = sub.add_parser("gen-data", help="sample a dataset from a teacher file")
    p.add_argument("teacher", help="teacher JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("fit", help="fit an interpolating model to a dataset")
    p.add_argument("model", choices=list(MODELS))
    p.add_argument("data", help="dataset JSON file")
    p.add_argument("teacher", nargs="?", default=None,
                   help="teacher JSON file (two-layer and resnet)")
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run one lemma verification suite")
    p.add_argument("--lemma", required=True, choices=list(VERIFY_SELECTORS))
    _add_study(p)
    p.set_defaults(func=_cmd_study, kind="verify-lemma")

    p = sub.add_parser("scale-study", help="risk-vs-n study over the n grid")
    _add_study(p)
    p.set_defaults(func=_cmd_study, kind="scale-study")

    p = sub.add_parser("bound-audit", help="scale study plus deviation-bound audit")
    _add_study(p)
    p.set_defaults(func=_cmd_study, kind="bound-audit")

    p = sub.add_parser("norms", help="norm audit of a saved model file")
    p.add_argument("model_file", help="model JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_norms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MinterpError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
