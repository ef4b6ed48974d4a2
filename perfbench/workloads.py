"""The benchmark's bound-audit workloads.

Each workload is one ``minterp bound-audit`` config.  ``purpose`` names
the spans whose share of worker time the workload exists to stress (see
README.md for why each was chosen); ``exercised`` names the spans that
must record at least one call in its traced run.
"""

from dataclasses import dataclass

COMMON = {"kind": "bound-audit", "d_grid": [4], "n_atoms": 64, "n_test": 4096}

# Spans every bound-audit call goes through, whatever the model.
_EVERY_AUDIT = (
    "cli.main", "experiments.run_trials", "experiments.trial",
    "sampling.make_teacher", "sampling.sample_dataset", "sampling.teacher_eval_batch",
    "complexity.population_risk", "random_features.features",
    "serialize.write_csv", "serialize.write_json_report",
)
_RESIDUAL_FIT = (
    "two_layer.approximate_teacher", "two_layer.fit_residual_net",
    "random_features.kernel_exact", "random_features.kernel_empirical",
    "linalg.smallest_eigenvalue", "linalg.min_norm_solve", "linalg.smallest_singular_value",
)


@dataclass(frozen=True)
class Workload:
    config: dict
    purpose: tuple
    exercised: tuple


WORKLOADS = {
    "rf-audit": Workload(
        config={"model": "rf", "n_grid": [32, 64, 128, 256], "m_per_n": 64,
                "trials": 2, "rad_draws": 32},
        purpose=("linalg.min_norm_solve", "linalg.smallest_singular_value"),
        exercised=_EVERY_AUDIT + (
            "linalg.min_norm_solve", "linalg.smallest_singular_value",
            "random_features.predict", "complexity.rad_rf_ball",
        ),
    ),
    "two-layer-audit": Workload(
        config={"model": "two-layer", "n_grid": [16, 32, 64, 128], "m_per_n": 64,
                "m1": 512, "quadrature": 200_000, "trials": 2, "rad_draws": 32},
        purpose=("complexity.rad_path_ball",),
        exercised=_EVERY_AUDIT + _RESIDUAL_FIT + (
            "two_layer.interpolate_two_layer", "two_layer.two_layer_eval_batch",
            "complexity.rad_path_ball",
        ),
    ),
    "resnet-audit": Workload(
        config={"model": "resnet", "n_grid": [16, 32, 64, 128],
                "L_grid": [256, 512, 1024, 2048], "m1": 256, "L_cap": 4096,
                "quadrature": 200_000, "trials": 4},
        purpose=("resnet.resnet_eval_batch", "random_features.kernel_exact"),
        exercised=_EVERY_AUDIT + _RESIDUAL_FIT + (
            "resnet.interpolate_resnet", "resnet.embed_two_layer", "resnet.resnet_add",
            "resnet.resnet_eval_batch", "resnet.weighted_path_norm",
        ),
    ),
}


def workload_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The bound-audit config of a workload; smoke keeps one trial at the two smallest n."""
    config = dict(COMMON, **WORKLOADS[name].config, seed=seed)
    if smoke:
        config["trials"] = 1
        for key in ("n_grid", "L_grid"):
            if key in config:
                config[key] = config[key][:2]
    return config
