import errno
import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import minterp
from minterp import (
    RANDOM_FOURIER,
    ExperimentConfig,
    derive_seed,
    make_teacher,
    run_study,
    sample_dataset,
    write_study,
)
from minterp import experiments
from minterp.cli import main
from minterp.experiments import (
    _BOOT_BASE,
    _COUNT_KEYS,
    _DATA_BASE,
    _FIT_BASE,
    _GRID_KEYS,
    _QUADRATURE_BASE,
    _RAD_BASE,
    _SEED_STRIDE,
    _TEACHER_BASE,
    _TEST_BASE,
    DEFAULT_M_GRID,
    MODELS,
    STUDY_KEYS,
    VERIFY_SELECTORS,
    _bootstrap_slope_ci,
    _median,
    _percentile,
    _run_trials,
    fit_model,
    result_basename,
    study_rule,
)
from minterp.serialize import load_json, read_file

from _oracles import bootstrap_slope_ci_loop
from _workloads import load_workloads, smoke_config


_SMALL = dict(d_grid=(2,), n_grid=(8,), trials=3, seed=11, quadrature=20_000, n_atoms=8)


def make_config(lemma="resnet-add", **kwargs):
    """A small config of one lemma suite: the _SMALL sizes it reads, then kwargs as given."""
    reads = STUDY_KEYS.get(("verify-lemma", lemma), ())
    small = {key: value for key, value in _SMALL.items() if key in reads}
    return ExperimentConfig(kind="verify-lemma", lemma=lemma, **{**small, **kwargs})


STUDIES = list(STUDY_KEYS)
STUDY_IDS = [f"{kind}:{name}" for kind, name in STUDIES]
FAMILY_STUDIES = [study for study in STUDIES if "family" in STUDY_KEYS[study]]


# A value other than the default for every key a study may leave unread.
_OFF_DEFAULT = dict(
    lemma="embedding", model="resnet", n_grid=(8,), L_grid=(4,), delta=0.2,
    family=RANDOM_FOURIER, gamma=2.0, n_atoms=8, quadrature=1000, m1=16, m2=256, m_per_n=4,
    n_test=100, m_cap=512, L_cap=4096, rad_draws=4,
)


class TestExperimentConfig:
    def test_scalar_grid_coerced_to_tuple(self):
        cfg = ExperimentConfig(n_grid=16, d_grid=3)
        assert cfg.n_grid == (16,)
        assert cfg.d_grid == (3,)

    def test_from_dict_round_trip_and_unknown_key(self):
        cfg = ExperimentConfig.from_dict({"n_grid": [8, 16], "trials": 2})
        assert cfg.n_grid == (8, 16)
        with pytest.raises(ValueError, match="unknown config keys: widthz"):
            ExperimentConfig.from_dict({"widthz": 1})

    @pytest.mark.parametrize(
        "key, value",
        [("max_resamples", 16), ("n_retry_draws", 32), ("probe_points", 1000),
         ("width_factor", 8.0), ("lambda_target", None)],
    )
    def test_from_dict_rejects_keys_that_are_constants(self, key, value):
        # constants of the constructions, not config keys, whatever the value
        with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
            ExperimentConfig.from_dict({key: value})

    def test_from_dict_rejects_m_grid(self):
        # widths are m_per_n * n (rf, two-layer) or L_grid (resnet), never a width grid
        with pytest.raises(ValueError, match="unknown config keys: m_grid$"):
            ExperimentConfig.from_dict({"kind": "scale-study", "m_grid": [64]})

    def test_echo_listifies_grids(self):
        echo = ExperimentConfig(n_grid=(8, 16)).echo()
        assert echo["n_grid"] == [8, 16]
        assert echo["seed"] == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "other"},
            {"model": "tree"},
            {"trials": 0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"seed": -1},
            {"n_grid": ()},
            {"n_grid": (0,)},
            {"m_cap": 0},
            {"family": "bogus"},
            {"gamma": 0.0},
            {"gamma": float("inf"), "family": "random_fourier"},
            # every run reads d_grid[0] only
            {"d_grid": (2, 5, 9)},
            # a resnet depth grid needs one entry per n
            {"kind": "scale-study", "model": "resnet", "n_grid": (8, 16, 32, 64),
             "L_grid": (4096,), "m1": 8, "L_cap": 8192},
            {"kind": "bound-audit", "model": "resnet", "n_grid": (8, 16), "L_grid": (64, 64, 64),
             "m1": 8},
            # under-parametrized grid points: a depth below n
            {"kind": "scale-study", "model": "resnet", "n_grid": (8, 16, 32, 64),
             "L_grid": (8, 8, 8, 8), "m1": 8},
            {"kind": "bound-audit", "model": "resnet", "n_grid": (8, 16, 32, 64),
             "L_grid": (64,) * 4, "m1": 24, "L_cap": 32},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("kind", ["scale-study", "bound-audit"])
    @pytest.mark.parametrize("L_grid", [(256,), (256, 512, 1024)])
    def test_resnet_study_needs_one_depth_per_n(self, kind, L_grid):
        # a depth grid of another length than n_grid is an error, not replaced
        grids = dict(n_grid=(8, 16), m1=8, L_cap=2048)
        with pytest.raises(ValueError, match="one L_grid entry per n"):
            ExperimentConfig(kind=kind, model="resnet", L_grid=L_grid, **grids)
        ExperimentConfig(kind=kind, model="resnet", L_grid=(256, 512), **grids)
        # rf and two-layer read m_per_n and no depth, so a depth grid is rejected
        with pytest.raises(ValueError, match="does not read L_grid"):
            ExperimentConfig(kind=kind, model="two-layer", L_grid=L_grid, **grids)

    @pytest.mark.parametrize(
        "lemma", [name for name in VERIFY_SELECTORS if "n_grid" in STUDY_KEYS["verify-lemma", name]]
    )
    def test_lemma_suite_rejects_extra_n(self, lemma):
        # a lemma suite that reads n_grid reads n_grid[0] only
        with pytest.raises(ValueError, match="one n"):
            make_config(lemma=lemma, n_grid=(6, 12))
        make_config(lemma=lemma, n_grid=(6,))
        # a config without a lemma (gen-teacher, gen-data, fit) keeps its grid
        ExperimentConfig(kind="verify-lemma", n_grid=(6, 12))

    def test_resnet_add_rejects_extra_depths(self):
        with pytest.raises(ValueError, match="one depth"):
            make_config(lemma="resnet-add", L_grid=(4, 8))
        make_config(lemma="resnet-add", L_grid=(4,))
        with pytest.raises(ValueError, match="does not read L_grid"):
            make_config(lemma="embedding", L_grid=(4, 8))

    @pytest.mark.parametrize("key", ("seed",) + _COUNT_KEYS)
    @pytest.mark.parametrize("value", [2e5, 32.0, True, "8"])
    def test_non_integer_count_rejected_naming_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize(
        "key, value",
        [("delta", "0.1"), ("delta", None), ("delta", True), ("delta", [0.1]),
         ("gamma", "2"), ("gamma", None), ("gamma", False)],
    )
    def test_non_real_delta_gamma_rejected_naming_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a real number"):
            ExperimentConfig(**{key: value})

    def test_numpy_reals_accepted(self):
        cfg = ExperimentConfig(delta=np.float64(0.2), gamma=np.int64(2))
        assert cfg.delta == 0.2 and cfg.gamma == 2

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(quadrature=np.int64(1000), trials=np.int32(2))
        assert cfg.quadrature == 1000 and cfg.trials == 2

    @pytest.mark.parametrize("key", _GRID_KEYS)
    @pytest.mark.parametrize("grid", [(32.7,), (8, 16.0), (True,), ("8",)])
    def test_non_integer_grid_entry_rejected_naming_key(self, key, grid):
        with pytest.raises(ValueError, match=f"^{key} entries must be integers"):
            ExperimentConfig(**{key: grid})

    def test_every_field_is_read(self):
        # a field that is validated and echoed but never read as config.<name>
        # anywhere in the package is a knob that changes nothing
        src = Path(minterp.__file__).parent
        read = set()
        for path in src.glob("*.py"):
            read.update(re.findall(r"\bconfig\.([A-Za-z_]\w*)", path.read_text()))
        unread = sorted(f.name for f in fields(ExperimentConfig) if f.name not in read)
        assert unread == []

    @pytest.mark.parametrize("config", [
        dict(), dict(lemma="krr-bound"), dict(kind="bound-audit", model="two-layer"),
    ])
    def test_odd_quadrature_rejected(self, config):
        # a ReLU quadrature rule holds whole antithetic pairs
        for Q in (1, 20_001, np.int64(1001)):
            with pytest.raises(ValueError, match="quadrature must be even"):
                ExperimentConfig(**config, quadrature=Q)
        ExperimentConfig(**config, quadrature=2)

    def test_default_resnet_study_says_what_to_set(self):
        # L_grid defaults to (8,), resnet-add's largest depth, below the default n = 32
        for kind in ("scale-study", "bound-audit"):
            with pytest.raises(ValueError) as err:
                ExperimentConfig(kind=kind, model="resnet")
            assert "under-parametrized grid points (n, depth): [(32, 8)]" in str(err.value)
            assert "one L_grid depth L per n with min(L, L_cap - m1) >= n" in str(err.value)
            ExperimentConfig(kind=kind, model="resnet", L_grid=(32,))

    @pytest.mark.parametrize("kind", ["scale-study", "bound-audit"])
    def test_infeasible_resnet_widths_rejected(self, kind):
        for m1, L_cap in ((512, 256), (256, 256)):
            with pytest.raises(ValueError, match="L_cap > m1"):
                ExperimentConfig(kind=kind, model="resnet", m1=m1, L_cap=L_cap)
        ExperimentConfig(kind=kind, model="resnet", m1=256, L_cap=257, n_grid=(1,), L_grid=(1,))
        # two-layer reads no L_cap, so an m1 at or past its default is no conflict
        ExperimentConfig(kind=kind, model="two-layer", m1=32768)

    @pytest.mark.parametrize("kind", ["scale-study", "bound-audit"])
    @pytest.mark.parametrize(
        "grid",
        [
            {"model": "resnet", "L_grid": (64, 64, 16, 64), "m1": 8},
            {"model": "resnet", "L_grid": (64, 64, 64, 8), "m1": 64},
            # the residual depth is min(width, L_cap - m1) = 8
            {"model": "resnet", "L_grid": (64,) * 4, "m1": 24, "L_cap": 32},
        ],
    )
    def test_under_parametrized_grid_point_rejected(self, kind, grid):
        # a row whose width is below its n can only fail with UnderParametrizedError
        with pytest.raises(ValueError, match="under-parametrized"):
            ExperimentConfig(kind=kind, n_grid=(8, 16, 32, 64), **grid)
        ExperimentConfig(kind="verify-lemma", n_grid=(8, 16, 32, 64), **grid)

    @pytest.mark.parametrize("kind", ["scale-study", "bound-audit"])
    def test_width_equal_to_n_accepted(self, kind):
        n_grid = (8, 16, 32, 64)
        for model in ("rf", "two-layer"):
            ExperimentConfig(kind=kind, model=model, n_grid=n_grid, m_per_n=1)
        ExperimentConfig(kind=kind, model="resnet", n_grid=n_grid, L_grid=n_grid, m1=8)
        ExperimentConfig(kind=kind, model="resnet", n_grid=n_grid, L_grid=(128,) * 4,
                         m1=8, L_cap=72)

    @pytest.mark.parametrize("smoke", [False, True])
    def test_benchmark_workload_configs_build(self, smoke):
        workloads = load_workloads()
        for name in workloads.WORKLOADS:
            ExperimentConfig.from_dict(workloads.workload_config(name, seed=0, smoke=smoke))

    def test_readme_config_blocks_build(self):
        # a key removed from ExperimentConfig must not linger in the docs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            ExperimentConfig.from_dict(json.loads(block))

    @pytest.mark.parametrize("kind", ["scale-study", "bound-audit"])
    def test_grid_times_trials_stays_below_seed_stride(self, kind):
        # builds configs only: trial seeds are disjoint while
        # len(n_grid) * trials < 2**20
        ExperimentConfig(kind=kind, n_grid=(8,), trials=2**20 - 1)
        ExperimentConfig(kind=kind, n_grid=(8, 16), trials=2**19 - 1)
        for n_grid, trials in (((8,), 2**20), ((8, 16), 2**19)):
            with pytest.raises(ValueError, match="seed streams"):
                ExperimentConfig(kind=kind, n_grid=n_grid, trials=trials)
        ExperimentConfig(kind="verify-lemma", n_grid=(8,), trials=2**20)

    def test_default_m_grid_is_powers_of_two(self):
        assert DEFAULT_M_GRID[0] == 64 and DEFAULT_M_GRID[-1] == 16384


class TestStudyTable:
    def test_table_size(self):
        # 7 lemma suites plus a scale study and a bound audit per model
        assert len(STUDIES) == len(VERIFY_SELECTORS) + 2 * len(MODELS) == 13
        assert sum(len(keys) for keys in STUDY_KEYS.values()) == 137

    @staticmethod
    def assert_keys_read_are_declared(config, monkeypatch):
        # a declared key the study never reads fails, and so does a read undeclared key
        names = {f.name for f in fields(ExperimentConfig)}
        read = set()

        def spy(self, name):
            if name in names:
                read.add(name)
            return object.__getattribute__(self, name)

        monkeypatch.setattr(ExperimentConfig, "__getattribute__", spy)
        result = run_study(config)
        monkeypatch.undo()
        assert result.failures == 0
        assert sorted(read) == sorted(config.keys_read())
        return result

    @pytest.mark.parametrize("study", STUDIES, ids=STUDY_IDS)
    def test_declared_keys_are_the_keys_read(self, study, monkeypatch):
        self.assert_keys_read_are_declared(smoke_config(study), monkeypatch)

    @pytest.mark.parametrize("study", FAMILY_STUDIES, ids=lambda s: f"{s[0]}:{s[1]}")
    def test_declared_keys_are_the_keys_read_under_cosine(self, study, monkeypatch):
        # the cosine family reads gamma, and its closed-form kernel no quadrature
        cosine = replace(smoke_config(study), family=RANDOM_FOURIER, gamma=1.5,
                         quadrature=ExperimentConfig().quadrature)
        result = self.assert_keys_read_are_declared(cosine, monkeypatch)
        assert all(row.get("quadrature") is None for row in result.rows)

    @pytest.mark.parametrize("study", STUDIES, ids=STUDY_IDS)
    def test_unread_key_off_its_default_rejected(self, study):
        config = smoke_config(study)
        unread = [f for f in fields(ExperimentConfig)
                  if f.name not in STUDY_KEYS[study]]
        assert unread
        for f in unread:
            with pytest.raises(ValueError, match=f"does not read {f.name};"):
                replace(config, **{f.name: _OFF_DEFAULT[f.name]})
            assert replace(config, **{f.name: f.default}) == config

    @pytest.mark.parametrize("study", FAMILY_STUDIES, ids=lambda s: f"{s[0]}:{s[1]}")
    def test_key_inert_under_the_family_rejected(self, study):
        # gamma shapes only cosine features, quadrature only the ReLU reference kernel
        relu = smoke_config(study)
        assert "gamma" not in relu.keys_read() and "gamma" not in relu.echo()
        with pytest.raises(ValueError, match="does not read gamma under family relu_l1sphere;"):
            replace(relu, gamma=3.0)
        cosine = replace(relu, family=RANDOM_FOURIER, gamma=3.0,
                         quadrature=ExperimentConfig().quadrature)
        assert "gamma" in cosine.echo() and "quadrature" not in cosine.keys_read()
        assert ExperimentConfig.from_dict(cosine.echo()) == cosine
        if "quadrature" in STUDY_KEYS[study]:
            with pytest.raises(ValueError,
                               match="does not read quadrature under family random_fourier;"):
                replace(cosine, quadrature=1000)

    @pytest.mark.parametrize("kind", ["scale-study", "bound-audit"])
    def test_unread_size_keys_rejected(self, kind):
        # a depth grid for a width-rule model, a width rule for resnet
        with pytest.raises(ValueError, match="does not read L_grid"):
            ExperimentConfig.from_dict(
                {"kind": kind, "model": "two-layer", "n_grid": [8, 16], "L_grid": [256]}
            )
        with pytest.raises(ValueError, match="does not read m_per_n"):
            ExperimentConfig(kind=kind, model="resnet", n_grid=(8, 16), L_grid=(64, 64),
                             m1=8, m_per_n=32)
        with pytest.raises(ValueError, match="unknown lemma selector"):
            ExperimentConfig.from_dict({"kind": kind, "lemma": ["x"]})

    @pytest.mark.parametrize("study", STUDIES, ids=STUDY_IDS)
    def test_echo_rebuilds_the_config_and_its_bytes(self, study, tmp_path):
        config = smoke_config(study)
        echo = config.echo()
        assert tuple(echo) == config.keys_read()
        rebuilt = ExperimentConfig.from_dict(echo)
        assert rebuilt == config
        paths = [write_study(run_study(cfg), tmp_path / sub)
                 for sub, cfg in (("a", config), ("b", rebuilt))]
        for first, second in zip(*paths):
            assert first.read_bytes() == second.read_bytes()

    def test_readme_table_matches_study_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(verify|scale-study|bound-audit)` \| `([\w-]+)` \| (.*) \|$",
                          section, flags=re.M)
        table = {}
        for command, name, keys in rows:
            kind = "verify-lemma" if command == "verify" else command
            own = "lemma" if kind == "verify-lemma" else "model"
            common = {"kind", "seed", "trials", "d_grid", own}
            table[kind, name] = common | set(re.findall(r"`(\w+)`", keys))
        assert len(rows) == len(STUDY_KEYS)
        assert table == {study: set(keys) for study, keys in STUDY_KEYS.items()}


class TestVerifyLemma:
    def test_unknown_selector(self):
        # rejected when the config is built, before any run
        with pytest.raises(ValueError, match="unknown lemma selector"):
            make_config(lemma="no-such-lemma")
        with pytest.raises(ValueError, match="unknown lemma selector"):
            ExperimentConfig.from_dict({"kind": "verify-lemma", "lemma": "no-such-lemma"})

    def test_resnet_add_small(self):
        result = run_study(make_config(lemma="resnet-add", trials=5))
        assert len(result.rows) == 5
        assert result.failures == 0
        assert result.pass_fraction == 1.0
        assert result.summary["lemma"] == "resnet-add"

    def test_embedding_small(self):
        result = run_study(make_config(lemma="embedding", trials=5))
        assert result.pass_fraction == 1.0
        for row in result.rows:
            assert row["norm_ratio"] == pytest.approx(3.0)

    def test_kernel_approx_small(self):
        cfg = make_config(lemma="kernel-approx", trials=3)
        result = run_study(cfg)
        assert len(result.rows) == len(DEFAULT_M_GRID) * 3
        assert result.columns[:4] == ("trial", "n", "m", "delta")
        assert set(result.summary["per_m_pass"]) == {str(m) for m in DEFAULT_M_GRID}
        # one lambda_min(K) per run, shared by every row
        assert {r["lambda_min_K"] for r in result.rows} == {result.summary["lambda_min_K"]}
        assert result.summary["min_per_m_pass"] == 1.0
        assert result.summary["lambda_min_K"] > 0

    def test_krr_bound_small(self):
        result = run_study(make_config(lemma="krr-bound", trials=3))
        assert result.pass_fraction == 1.0
        for row in result.rows:
            assert row["reproduce_error"] <= 1e-8
            assert row["surrogate_norm"] >= 0.0

    def test_fit_rand_label_small(self):
        cfg = make_config(lemma="fit-rand-label", n_grid=(6,), m2=512)
        result = run_study(cfg)
        assert result.pass_fraction == 1.0
        for row in result.rows:
            assert row["lambda_emp"] >= row["lambda_ref"] / 2 > 0
            assert row["interp_error"] <= 1e-8

    def test_two_layer_composite_small(self):
        cfg = make_config(
            lemma="two-layer-composite", n_grid=(6,), m1=64, m2=1024, trials=2
        )
        result = run_study(cfg)
        assert result.failures == 0
        assert result.pass_fraction == 1.0
        for row in result.rows:
            assert row["path_norm"] <= 3.0 * row["teacher_norm"]

    def test_trial_crash_is_isolated(self):
        # a residual width below n makes every trial raise inside the worker;
        # rows must record the error instead of aborting the run
        cfg = make_config(lemma="fit-rand-label", n_grid=(6,), m2=4)
        result = run_study(cfg)
        assert result.failures == len(result.rows) == 3
        assert result.pass_fraction == 0.0
        for row in result.rows:
            assert row["error"].startswith("UnderParametrizedError")


@pytest.fixture(scope="module")
def scale_pair():
    cfg = ExperimentConfig(
        kind="scale-study",
        model="rf",
        d_grid=(2,),
        n_grid=(8, 12, 16, 24),
        m_per_n=16,
        trials=2,
        n_test=500,
        n_atoms=8,
        seed=13,
    )
    # only the audit reads rad_draws
    audit_cfg = ExperimentConfig.from_dict({**cfg.echo(), "kind": "bound-audit", "rad_draws": 4})
    return run_study(cfg, threads=1), run_study(audit_cfg, threads=1)


class TestScaleEngine:
    def test_row_count_and_columns(self, scale_pair):
        scale, _ = scale_pair
        assert len(scale.rows) == 4 * 2
        assert "test_risk" in scale.columns and "bound" in scale.columns
        for row in scale.rows:
            assert row["error"] == ""
            assert row["test_risk"] >= 0.0
            assert 0.0 < row["test_risk_se"] < row["test_risk"]
            assert isinstance(row["threshold_met"], bool)
            assert "bound" not in row
        # every ReLU rf test risk kept its float32 tile sums
        assert "test_risk_se" in scale.columns
        assert scale.summary["test_risk_float64_rows"] == 0

    def test_summary_has_slope_and_quartiles(self, scale_pair):
        scale, _ = scale_pair
        assert set(scale.summary["per_n"]) == {"8", "12", "16", "24"}
        for stats in scale.summary["per_n"].values():
            assert stats["q25"] <= stats["median"] <= stats["q75"]
            assert stats["trials"] == 2
        assert "slope" in scale.summary

    def test_audit_adds_bound_columns(self, scale_pair):
        _, audit = scale_pair
        for row in audit.rows:
            assert 0.0 <= row["rad_lower"] <= row["rad_upper"] * (1 + 1e-9)
            assert row["bound"] >= row["empirical_risk"]
        assert 0.0 <= audit.summary["bound_pass_fraction"] <= 1.0

    def test_audit_rows_match_scale_rows_on_shared_columns(self, scale_pair):
        scale, audit = scale_pair
        shared = ("trial", "model_kind", "n", "m_or_L", "norm_radius",
                  "empirical_risk", "test_risk", "test_risk_se", "threshold_met", "error")
        for a, b in zip(scale.rows, audit.rows):
            for key in shared:
                assert a[key] == b[key]

    def test_failed_certificates_are_counted_and_summed_in_float64(self, scale_pair, monkeypatch):
        # a float32 route whose bound is infinite fails every certificate, so
        # every row is summed again in float64 and counted
        population_risk = experiments.population_risk

        def unbounded(model_eval, f, N_test, seed, single_eval=None):
            def loose(X):
                return single_eval(X)[0], np.full(X.shape[1], np.inf)
            return population_risk(model_eval, f, N_test, seed, single_eval and loose)

        monkeypatch.setattr(experiments, "population_risk", unbounded)
        scale, _ = scale_pair
        result = run_study(scale.config, threads=1)
        assert result.summary["test_risk_float64_rows"] == len(result.rows) == 8
        for row, kept in zip(result.rows, scale.rows):
            assert row["test_risk"] != kept["test_risk"]
            assert abs(row["test_risk"] - kept["test_risk"]) <= 1e-6 * kept["test_risk"]

    def test_short_grid_flags_missing_slope(self):
        cfg = ExperimentConfig(
            kind="scale-study", model="rf", d_grid=(2,), n_grid=(8, 16),
            m_per_n=8, trials=2, n_test=100, n_atoms=8, seed=3,
        )
        result = run_study(cfg)
        assert "slope" not in result.summary
        assert "grid points" in result.summary["slope_flag"]

    def test_thread_count_does_not_change_rows(self):
        cfg = ExperimentConfig(
            kind="scale-study", model="rf", d_grid=(2,), n_grid=(8, 16),
            m_per_n=8, trials=3, n_test=100, n_atoms=8, seed=17,
        )
        r1 = run_study(cfg, threads=1)
        r3 = run_study(cfg, threads=3)
        assert r1.rows == r3.rows
        assert r1.summary == r3.summary

    def test_widths_follow_the_family_rule(self):
        base = dict(kind="scale-study", d_grid=(2,), n_grid=(8, 16), trials=1, n_test=100,
                    n_atoms=8, seed=19)
        rf = run_study(ExperimentConfig(model="rf", m_per_n=4, **base))
        assert [r["m_or_L"] for r in rf.rows] == [32, 64]
        # a resnet adds L_grid[i] layers to its m1-layer teacher at n_grid[i]
        resnet = run_study(ExperimentConfig(model="resnet", L_grid=(64, 128), m1=8,
                                            quadrature=20_000, **base))
        assert resnet.failures == 0
        assert [r["m_or_L"] for r in resnet.rows] == [8 + 64, 8 + 128]

    def test_failed_residual_rows_name_their_width(self):
        # at depth m2 = n the residual fit's square system misses its eigenvalue
        # floor: both rows failed at each study seed 0-39
        study = run_study(ExperimentConfig(
            kind="scale-study", model="resnet", d_grid=(2,), n_grid=(16, 32), L_grid=(16, 32),
            m1=8, n_atoms=8, trials=1, quadrature=20_000, seed=19,
        ))
        assert study.failures == len(study.rows) == 2
        for row in study.rows:
            assert row["error"].startswith("ConcentrationFailureError")
            assert f"m={row['m_or_L']}; n={row['n']})" in row["error"]


# The studies that sum a ReLU quadrature rule at their (ReLU) smoke sizes; the bound
# audits are test_a_bound_audit_draws_one_rule's.
RULE_STUDIES = [study for study in STUDIES
                if "quadrature" in STUDY_KEYS[study] and study[0] != "bound-audit"]


class TestQuadratureRule:
    @staticmethod
    def draws_per_run(config, monkeypatch):
        """The (d, Q, seed) of each rule experiments draws, per run of config at 1 and 2 threads."""
        draws = []
        draw = experiments.quadrature_rule
        monkeypatch.setattr(experiments, "quadrature_rule",
                            lambda *key: draws.append(key) or draw(*key))
        runs = []
        for threads in (1, 2):
            study = run_study(config, threads=threads)
            assert study.failures == 0
            runs.append(draws[:])
            draws.clear()
        return runs

    @pytest.mark.parametrize("model", ["two-layer", "resnet"])
    def test_a_bound_audit_draws_one_rule(self, monkeypatch, model):
        # every fit of the study reads the rule at its quadrature seed role
        config = replace(smoke_config(("bound-audit", model)), trials=2)
        rule = (2, config.quadrature, derive_seed(config.seed, _QUADRATURE_BASE))
        assert self.draws_per_run(config, monkeypatch) == [[rule], [rule]]

    @pytest.mark.parametrize("study", RULE_STUDIES, ids=lambda s: f"{s[0]}:{s[1]}")
    def test_each_lemma_suite_and_scale_study_draws_one_rule(self, monkeypatch, study):
        config = replace(smoke_config(study), trials=2)
        rule = (2, config.quadrature, derive_seed(config.seed, _QUADRATURE_BASE))
        assert self.draws_per_run(config, monkeypatch) == [[rule], [rule]]

    @pytest.mark.parametrize("config", [
        pytest.param(config, id=f"{config.kind}:{config.lemma or config.model}:{config.family}")
        for study in FAMILY_STUDIES
        for config in (smoke_config(study), replace(smoke_config(study), family=RANDOM_FOURIER,
                                                    quadrature=ExperimentConfig().quadrature))
        if "quadrature" not in config.keys_read()
    ])
    def test_rf_and_cosine_studies_draw_no_rule(self, monkeypatch, config):
        assert self.draws_per_run(config, monkeypatch) == [[], []]

    def test_seed_bases_are_disjoint(self):
        # each base owns the indices [base, base + _SEED_STRIDE)
        bases = (_TEACHER_BASE, _DATA_BASE, _FIT_BASE, _TEST_BASE, _RAD_BASE, _BOOT_BASE,
                 _QUADRATURE_BASE)
        assert sorted(bases) == [k * _SEED_STRIDE for k in range(1, len(bases) + 1)]


class Stop(BaseException):
    """Module level, so that it pickles and a helper can send it back whole."""


class Unloadable(BaseException):
    """Pickles, but unpickling calls it with its one arg and fails."""

    def __init__(self, what, why):
        super().__init__(f"{what}, {why}")


def _on_second_thread(call):
    """call() run on a second thread, where the runner's helpers are threads; its value.

    A 1 us switch interval makes the threads hand the GIL over often, and
    every helper thread must have been joined when call returns.
    """
    out = {}

    def target():
        before = threading.active_count()
        try:
            out["value"] = call()
        except BaseException as exc:
            out["error"] = exc
        out["threads left"] = threading.active_count() - before

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        starter = threading.Thread(target=target)
        starter.start()
        starter.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not starter.is_alive()
    assert out["threads left"] == 0
    if "error" in out:
        raise out["error"]
    return out["value"]


# The caller's thread decides the helpers: on the only thread they are forked
# processes, beside another thread they are threads.
RUNNERS = {"processes": lambda call: call(), "threads": _on_second_thread}


def _who() -> tuple:
    return os.getpid(), threading.get_ident()


class _Signal:
    """A pipe a helper writes to and the caller waits on; forked helpers share it too."""

    def __init__(self):
        self.read_fd, self.write_fd = os.pipe()

    def set(self):
        os.write(self.write_fd, b"x")

    def wait(self):
        assert select.select([self.read_fd], [], [], 30)[0], "no helper ran a trial"

    def close(self):
        os.close(self.read_fd)
        os.close(self.write_fd)


@pytest.fixture
def signal():
    pipe = _Signal()
    yield pipe
    pipe.close()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_second_start(monkeypatch, runner) -> BaseException:
    """Make the runner's second helper start raise, as a full process or thread table would."""
    if runner == "processes":
        owner, name, fault = os, "fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    else:
        owner, name, fault = threading.Thread, "start", RuntimeError("can't start new thread")
    real, starts = getattr(owner, name), []

    def failing(*args):
        starts.append(args)
        if len(starts) > 1:
            raise fault
        return real(*args)

    monkeypatch.setattr(owner, name, failing)
    return fault


class TestRunTrials:
    # Workers report through their return values and an O_APPEND log file, which
    # forked helpers reach as well as threads do; a list they filled would stay
    # in the helper process.
    @staticmethod
    def taken(log) -> list:
        """(index, pid) of each trial a worker logged, in the order they started."""
        lines = log.read_text().splitlines() if log.exists() else []
        return [tuple(map(int, line.split())) for line in lines]

    @staticmethod
    def logging(log, body):
        def worker(i):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{i} {os.getpid()}\n".encode())
            finally:
                os.close(fd)
            return body(i)
        return worker

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 8])
    def test_each_index_runs_once_and_results_keep_index_order(self, tmp_path, runner, threads,
                                                               count):
        log = tmp_path / "taken.log"

        def body(i):
            time.sleep(1e-4 * (i % 3))
            return i, _who()

        results = RUNNERS[runner](lambda: _run_trials(self.logging(log, body), count, threads))
        assert [i for i, _ in results] == list(range(count))
        taken = [i for i, _ in self.taken(log)]
        assert sorted(taken) == list(range(count))
        if threads == 1:
            assert taken == list(range(count))
        _no_child_left()

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("threads", [2, 3, 5])
    @pytest.mark.parametrize("count", [2, 3, 9])
    def test_caller_runs_trials_beside_at_most_threads_minus_one_helpers(
            self, signal, runner, threads, count):
        caller = []

        def worker(i):
            # the caller's first trial waits until a helper has run one
            if _who() == caller[0]:
                signal.wait()
            else:
                signal.set()
            return _who()

        def run():
            caller.append(_who())
            return _run_trials(worker, count, threads)

        ran_by = set(RUNNERS[runner](run))
        assert caller[0] in ran_by and len(ran_by) >= 2
        assert len(ran_by) <= min(threads, count)
        pids = {pid for pid, _ in ran_by}
        assert len(pids) == (len(ran_by) if runner == "processes" else 1)
        _no_child_left()

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_helper_base_exception_comes_back_with_its_type_and_args(
            self, tmp_path, signal, runner):
        log, caller = tmp_path / "taken.log", []

        def body(i):
            if _who() == caller[0]:
                signal.wait()
                time.sleep(0.01)  # the raising helper takes the rest meanwhile
                return i
            signal.set()
            raise Stop("helper stopped", 7)

        def run():
            caller.append(_who())
            return _run_trials(self.logging(log, body), 50, 2)

        with pytest.raises(Stop) as raised:
            RUNNERS[runner](run)
        assert raised.value.args == ("helper stopped", 7)
        taken = self.taken(log)
        assert len(taken) < 50  # no worker took a new index after the raise
        if runner == "processes":
            assert [pid for _, pid in taken].count(os.getpid()) == len(taken) - 1
        _no_child_left()

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("exc_type", [Stop, KeyboardInterrupt])
    def test_callers_own_exception_propagates_as_the_same_object(self, runner, exc_type):
        stop, caller = exc_type("caller stopped"), []

        def worker(i):
            if _who() == caller[0]:
                raise stop
            return i

        def run():
            caller.append(_who())
            return _run_trials(worker, 9, 3)

        with pytest.raises(exc_type) as raised:
            RUNNERS[runner](run)
        assert raised.value is stop
        _no_child_left()

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("sends", ["local exception", "unloadable exception", "row"])
    def test_what_a_helper_cannot_pickle_comes_back_as_a_runtime_error(self, signal, runner,
                                                                        sends):
        class Local(BaseException):
            pass

        caller = []

        def worker(i):
            if _who() == caller[0]:
                signal.wait()
                return i
            signal.set()
            if sends == "local exception":
                raise Local("no pickle")
            if sends == "unloadable exception":
                raise Unloadable("no", "load")
            return lambda: i

        def run():
            caller.append(_who())
            return _run_trials(worker, 9, 2)

        match = {"local exception": "^Local: no pickle$",
                 "unloadable exception": "^Unloadable: no, load$", "row": "pickle"}[sends]
        with pytest.raises(RuntimeError, match=match):
            RUNNERS[runner](run)
        _no_child_left()

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_a_long_order_reaches_the_helpers(self, runner):
        # more indices than an empty pipe holds at once, so a thread feeds the rest
        results = RUNNERS[runner](lambda: _run_trials(lambda i: (i, _who()), 5000, 2))
        assert [i for i, _ in results] == list(range(5000))
        _no_child_left()

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_a_helper_that_fails_to_start_is_raised_once_the_started_ones_end(
            self, tmp_path, monkeypatch, runner):
        log = tmp_path / "taken.log"

        def run():
            threads = threading.active_count()
            fault = _fail_second_start(monkeypatch, runner)
            with pytest.raises(type(fault)) as raised:
                _run_trials(self.logging(log, lambda i: time.sleep(1e-3)), 40, 3)
            assert raised.value is fault
            time.sleep(0.05)  # a helper left running would log trials meanwhile
            return threading.active_count() - threads

        assert RUNNERS[runner](run) == 0
        assert self.taken(log) == []  # a failed start feeds no index, not even the caller's
        _no_child_left()

    def test_a_feeder_that_fails_to_start_is_raised_once_the_helpers_end(self, monkeypatch):
        # past what an empty pipe holds a thread feeds the order; its failed start must
        # still close the pipe, or the forked helper waits on it for good
        fault = RuntimeError("can't start new thread")

        def failing(thread):
            raise fault

        monkeypatch.setattr(threading.Thread, "start", failing)
        with pytest.raises(RuntimeError) as raised:
            _run_trials(lambda i: i, 5000, 2)
        assert raised.value is fault
        _no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("case", ["returns", "helper raises", "caller raises", "start fails"])
    def test_a_run_leaves_no_fd_open(self, monkeypatch, signal, runner, case):
        caller = []

        def worker(i):
            if _who() == caller[0]:
                signal.wait()
                if case == "caller raises":
                    raise Stop("caller stopped")
            else:
                signal.set()
                if case == "helper raises":
                    raise Stop("helper stopped")
            return i

        def run():
            caller.append(_who())
            if case == "start fails":
                _fail_second_start(monkeypatch, runner)
            fds, raised = len(os.listdir("/proc/self/fd")), None
            try:
                _run_trials(worker, 9, 3)
            except BaseException as exc:
                raised = exc
            return fds, len(os.listdir("/proc/self/fd")), raised

        before, after, raised = RUNNERS[runner](run)
        assert after == before
        assert (raised is None) == (case == "returns")
        _no_child_left()

    def test_a_forked_helper_that_exits_without_its_rows_names_its_status(self, signal):
        caller = os.getpid()

        def worker(i):
            if os.getpid() != caller:
                signal.set()
                os._exit(3)
            signal.wait()
            return i

        with pytest.raises(RuntimeError, match=r"ended without its rows \(wait status 768\)$"):
            _run_trials(worker, 9, 2)
        _no_child_left()

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_a_helper_that_raises_before_it_sends_frees_the_caller(self, signal, runner):
        # an error that pickles to nothing and prints nothing makes _serve raise itself
        class Unsendable(BaseException):
            def __reduce__(self):
                raise TypeError("no pickle")

            def __str__(self):
                raise TypeError("no message")

        caller = []

        def worker(i):
            if _who() == caller[0]:
                signal.wait()
                return i
            signal.set()
            raise Unsendable

        def run():
            caller.append(_who())
            return _run_trials(worker, 9, 2)

        status = 256 if runner == "processes" else None  # a forked helper exits 1
        with pytest.raises(RuntimeError, match=rf"without its rows \(wait status {status}\)$"):
            RUNNERS[runner](run)
        _no_child_left()

    def test_a_study_run_while_a_module_imports_completes(self, tmp_path):
        # forked helpers inherit the import lock the importing caller holds
        (tmp_path / "audit_on_import.py").write_text(
            "from minterp import ExperimentConfig, run_study\n"
            "config = ExperimentConfig(kind='bound-audit', model='two-layer', d_grid=(2,),\n"
            "                          n_grid=(8, 16), trials=2, n_atoms=8, quadrature=20_000,\n"
            "                          m1=16, m_per_n=16, n_test=100, rad_draws=4)\n"
            "SAME = run_study(config, threads=2).rows == run_study(config, threads=1).rows\n"
        )
        src = str(Path(experiments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [str(tmp_path), src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import audit_on_import; assert audit_on_import.SAME"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_a_fresh_audit_imports_no_pool_modules_and_leaves_nothing_running(self):
        # numpy.ma costs 14-18 ms on first use; the runner forks its helpers or starts
        # threads, so neither concurrent.futures nor multiprocessing is needed
        script = (
            "import os, sys, threading, minterp\n"
            "minterp.run_study(minterp.ExperimentConfig(kind='bound-audit', model='rf', d_grid=(2,),\n"
            "    n_grid=(8, 16, 32, 64), trials=2, m_per_n=8, n_test=100), threads=2)\n"
            "try:\n"
            "    child = os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    child = None\n"
            "print(sorted(m for m in ('numpy.ma', 'concurrent.futures', 'multiprocessing')\n"
            "             if m in sys.modules), threading.active_count(), child)\n"
        )
        src = str(Path(experiments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] 1 None\n"

    def test_row_exception_becomes_an_error_cell(self):
        def body(i):
            if i == 1:
                raise ValueError("bad, row\none")
            return {"value": i}

        rows = experiments._run_rows([{"trial": t} for t in range(4)], body, 2)
        assert [row["trial"] for row in rows] == [0, 1, 2, 3]
        assert rows[1] == {"trial": 1, "error": "ValueError: bad; row one"}
        assert rows[2] == {"trial": 2, "error": "", "value": 2}

    def test_study_started_off_the_main_thread_completes(self):
        config = smoke_config(("bound-audit", "rf"))
        results = []
        starter = threading.Thread(target=lambda: results.append(run_study(config, threads=2)))
        starter.start()
        starter.join(timeout=120)
        assert not starter.is_alive()
        (result,) = results
        assert result.rows == run_study(config, threads=1).rows

    @pytest.mark.parametrize("threads", [0, -1, 2.0, True])
    def test_run_study_rejects_thread_counts_below_one(self, monkeypatch, threads):
        calls = []
        monkeypatch.setattr(experiments, "study_rule", lambda *a: calls.append(a))
        monkeypatch.setattr(experiments, "_run_rows", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads!r}"):
            run_study(smoke_config(("bound-audit", "two-layer")), threads=threads)
        assert calls == []


class TestOneBlasThread:
    @staticmethod
    def counts_seen_by_trials(monkeypatch, get, fail=False):
        """Patch the trial runner to record get() inside each trial, and to raise if fail."""
        seen, run_trials = [], experiments._run_trials

        def recording(worker, count, threads):
            def traced(i):
                seen.append(get())
                if fail:
                    raise KeyboardInterrupt
                return worker(i)
            return run_trials(traced, count, threads)

        monkeypatch.setattr(experiments, "_run_trials", recording)
        return seen

    @pytest.mark.parametrize("fail", [False, True])
    def test_callers_count_is_restored(self, monkeypatch, fail):
        blas = experiments._openblas_threads()
        if blas is None:
            pytest.skip("numpy does not bundle scipy-openblas here")
        get, set_threads = blas
        before = get()
        set_threads(2)
        try:
            seen = self.counts_seen_by_trials(monkeypatch, get, fail)
            if fail:
                with pytest.raises(KeyboardInterrupt):
                    run_study(smoke_config(("bound-audit", "rf")), threads=2)
            else:
                run_study(smoke_config(("bound-audit", "rf")), threads=2)
            assert seen and set(seen) == {1}
            assert get() == 2
        finally:
            set_threads(before)

    def test_two_studies_hold_one_thread_until_the_last_ends(self, monkeypatch):
        state, sets = [4], []

        def set_threads(n):
            sets.append(n)
            state[0] = n

        monkeypatch.setattr(experiments, "_openblas_threads",
                            lambda: (lambda: state[0], set_threads))
        both_inside, first_done = threading.Barrier(2), threading.Event()
        run_trials, seen = experiments._run_trials, {}

        def gated(worker, count, threads):
            both_inside.wait(timeout=30)
            if threading.current_thread().name == "second":
                assert first_done.wait(timeout=60)
                seen["second after first"] = state[0]
            return run_trials(worker, count, threads)

        monkeypatch.setattr(experiments, "_run_trials", gated)

        def study(name):
            run_study(make_config(), threads=2)
            if name == "first":
                first_done.set()

        starters = [threading.Thread(target=study, args=(name,), name=name)
                    for name in ("first", "second")]
        for starter in starters:
            starter.start()
        for starter in starters:
            starter.join(timeout=120)
        assert seen == {"second after first": 1}
        assert sets == [1, 4] and state == [4]

    def test_without_openblas_the_runner_changes_nothing(self, monkeypatch):
        config = make_config()
        want = run_study(config, threads=2)
        real = experiments._openblas_threads()
        get = real[0] if real else lambda: None
        monkeypatch.setattr(experiments, "_openblas_threads", lambda: None)
        seen = self.counts_seen_by_trials(monkeypatch, get)
        before = get()
        got = run_study(config, threads=2)
        assert got.rows == want.rows and got.summary == want.summary
        assert set(seen) == {before} and get() == before

    def test_rf_bytes_do_not_depend_on_the_blas_env(self, tmp_path):
        # The smallest rf audit found whose bytes the BLAS count moves: left at the
        # environment's count, OpenBLAS splits its n = 256, m = 4096 calls across threads
        # and norm_radius differs in the 12th digit between =1 and =2.  Audits with
        # n <= 192 wrote the same bytes under both, so they cannot show the difference.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "bound-audit", "model": "rf", "d_grid": [4], "n_atoms": 64,
            "n_grid": [256], "m_per_n": 16, "trials": 1, "n_test": 64, "rad_draws": 2,
        }))
        src = str(Path(experiments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "minterp.cli", "bound-audit", "--config", str(cfg),
                 "--out", str(out), "--threads", "2"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append([(out / name).read_bytes()
                            for name in ("bound_audit.csv", "bound_audit_summary.json")])
        assert outputs[0] == outputs[1]


# Values without -0.0: numpy's partition and a sort may order -0.0 and +0.0
# either way, and the risks these summarize are at least +0.0.
_values = st.lists(st.floats(width=64), min_size=1, max_size=41).map(
    lambda v: np.asarray(v) + 0.0)


def _same_bits(got, want) -> bool:
    """Equal bytes, where a NaN matches any NaN: NaN payloads are not compared."""
    got, want = np.atleast_1d(np.float64(got)), np.atleast_1d(np.float64(want))
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


class TestOrderStatistics:
    # _values reaches +-inf and the largest doubles on purpose; the errstate
    # blocks keep the overflow they cause from warning
    @settings(max_examples=200, deadline=None)
    @given(values=_values)
    @example(values=np.array([0.5]))
    @example(values=np.array([0.25, 0.5]))
    @example(values=np.array([3.0, 1.0, 2.0]))
    @example(values=np.array([4.0, 1.0, 3.0, 2.0]))
    @example(values=np.array([1.0, np.nan, 2.0]))
    def test_median_matches_numpy_bytes(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(_median(values), np.median(values))

    @settings(max_examples=100, deadline=None)
    @given(values=_values, rows=st.integers(1, 5))
    @example(values=np.arange(15.0), rows=5)
    @example(values=np.arange(16.0), rows=4)
    def test_median_along_axis_1_matches_numpy_bytes(self, values, rows):
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.resize(values[::-1], (rows, len(values))) * np.arange(1, rows + 1)[:, None]
            assert _same_bits(_median(block), np.median(block, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(values=_values, q=st.floats(1e-3, 100 - 1e-3))
    @example(values=np.array([0.5]), q=25.0)
    @example(values=np.array([0.25, 0.5]), q=75.0)
    @example(values=np.array([3.0, 1.0, 2.0]), q=2.5)
    @example(values=np.array([4.0, 1.0, 3.0, 2.0]), q=97.5)
    @example(values=np.array([1.0, np.nan, 2.0]), q=25.0)
    def test_percentile_matches_numpy_bytes(self, values, q):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(_percentile(values, q), np.percentile(values, q))


class TestBootstrapSlopeCi:
    # unequal trial counts stand for failed rows; the stacked slope must keep each
    # row's bits at every grid size, past numpy's 8-wide unrolled sums too
    @pytest.mark.parametrize("counts", [(3, 3, 3, 3), (5, 1, 4, 2, 6), (4, 3, 4, 4, 2, 4, 3, 4, 4),
                                        (3, 2) * 10])
    @pytest.mark.parametrize("shift", [0.0, 0.02, 0.06])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_matches_loop_bytes(self, counts, shift, seed):
        rng = np.random.default_rng(seed)
        # a shift makes some resampled medians nonpositive, and those replicates drop out
        risks = [list(rng.lognormal(-3.0, 1.0, size=c) - shift) for c in counts]
        ns = [8 * 2**i for i in range(len(counts))]
        got = _bootstrap_slope_ci(risks, ns, seed)
        want = bootstrap_slope_ci_loop(risks, ns, seed)
        if want is None:
            assert got is None
        else:
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestFitModel:
    @pytest.mark.parametrize("model", MODELS)
    def test_each_family_interpolates_and_brackets_rad(self, model):
        cfg = ExperimentConfig(d_grid=(2,), n_grid=(8,), n_atoms=8, m1=16, L_cap=272,
                               quadrature=20_000, rad_draws=4)
        teacher = make_teacher(2, 8, seed=1)
        data = sample_dataset(teacher, 8, seed=2)
        fit = fit_model(cfg, model, data, teacher, 256, fit_seed=3, approx_seed=4,
                        rule=study_rule(cfg, 2))
        assert fit.m_or_L == (16 + 256 if model == "resnet" else 256)
        if model == "resnet":
            # m_or_L counts the layers of both parts, m1 + m2; resnet_add stacks
            # them side by side, so the fitted net is max(m1, m2) deep
            assert (fit.model.L, fit.model.D, fit.model.m) == (max(16, 256), 2 * (2 + 2), 2)
        assert_allclose(fit.fit.fitted, data.y, atol=1e-8)
        assert_allclose(fit.predict(data.X), fit.fit.fitted, atol=1e-12)
        assert fit.norm_radius > 0
        assert isinstance(fit.threshold_met, bool)
        lower, upper = fit.rad_bounds(5)
        assert 0.0 <= lower <= upper * (1 + 1e-9)

    @pytest.mark.parametrize("model", MODELS)
    def test_array_records_compare_by_identity(self, model):
        # a field-wise == would compare arrays and raise; hash would hash them
        cfg = ExperimentConfig(d_grid=(2,), n_grid=(8,), n_atoms=8, m1=16, L_cap=272,
                               quadrature=20_000, rad_draws=4)
        teacher = make_teacher(2, 8, seed=1)
        data = sample_dataset(teacher, 8, seed=2)
        fit = fit_model(cfg, model, data, teacher, 256, fit_seed=3, approx_seed=4,
                        rule=study_rule(cfg, 2))
        for record in (fit, fit.fit, fit.model, data, teacher):
            twin = replace(record)
            assert record == record and record != twin
            assert len({record, twin, record}) == 2

    def test_cli_fit_uses_the_shared_fit(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        assert main(["fit", "rf", str(tmp_path / "dataset.json"), *out]) == 0
        capsys.readouterr()
        config = ExperimentConfig.from_dict(load_json(tmp_path / "config.json"))
        data = read_file(tmp_path / "dataset.json", "dataset")
        fit = fit_model(config, "rf", data, None, config.m2, derive_seed(config.seed, 2), 0)
        saved = load_json(tmp_path / "model_rf.json")
        assert saved["coefficients"] == [float(v) for v in fit.model.coefficients]


class TestWriteStudy:
    def test_names_and_summary_schema(self, tmp_path, scale_pair):
        scale, audit = scale_pair
        result = run_study(make_config(lemma="resnet-add", trials=2))
        assert result_basename(result) == "verify_resnet_add"
        assert result_basename(scale) == "scale_study"
        assert result_basename(audit) == "bound_audit"
        paths = write_study(result, tmp_path)
        assert [p.name for p in paths] == ["verify_resnet_add.csv", "verify_resnet_add_summary.json"]
        report = json.loads(paths[1].read_text())
        assert set(report) == {"version", "config", "summary"}
        header = paths[0].read_text().splitlines()[0]
        assert header.startswith("# config=") and "version=" in header

    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_config(lemma="embedding", trials=3)
        for sub in ("a", "b"):
            write_study(run_study(cfg), tmp_path / sub)
        for name in ("verify_embedding.csv", "verify_embedding_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture
def workdir(tmp_path):
    cfg = {
        "d_grid": [2],
        "n_grid": [8],
        "n_atoms": 8,
        "m1": 16,
        "m2": 256,
        "quadrature": 20_000,
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return tmp_path, str(path)


class TestCli:
    def test_full_workflow(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        teacher = str(tmp_path / "teacher.json")
        assert main(["gen-data", teacher, *out]) == 0
        data = str(tmp_path / "dataset.json")

        assert main(["fit", "rf", data, *out]) == 0
        assert main(["fit", "two-layer", data, teacher, *out]) == 0
        assert main(["fit", "resnet", data, teacher, *out]) == 0
        for name in ("model_rf.json", "model_two_layer.json", "model_resnet.json",
                     "fit_report_resnet.json"):
            assert (tmp_path / name).exists()

        assert main(["norms", str(tmp_path / "model_resnet.json"), *out]) == 0
        lines = (tmp_path / "norms_model_resnet.csv").read_text().splitlines()
        assert lines[1] == "net_id,L,D,m,weighted_path_norm,eval_checksum"
        assert lines[2].startswith("model_resnet,")

        assert main(["norms", str(tmp_path / "model_two_layer.json"), *out]) == 0
        lines = (tmp_path / "norms_model_two_layer.csv").read_text().splitlines()
        assert lines[1] == "net_id,m,d,path_norm,eval_checksum"

        report = json.loads((tmp_path / "fit_report_resnet.json").read_text())
        assert report["report"]["kind"] == "resnet"
        assert report["report"]["interp_error"] <= 1e-8
        capsys.readouterr()

    def test_fits_and_norms_in_one_directory_keep_every_output(self, workdir, capsys):
        # each fit report and norms file is named after its model, as the model files are
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        teacher = str(tmp_path / "teacher.json")
        assert main(["gen-data", teacher, *out]) == 0
        assert main(["fit", "rf", str(tmp_path / "dataset.json"), *out]) == 0
        assert main(["fit", "two-layer", str(tmp_path / "dataset.json"), teacher, *out]) == 0
        for model in ("model_rf.json", "model_two_layer.json"):
            assert main(["norms", str(tmp_path / model), *out]) == 0
        capsys.readouterr()
        reports = sorted(tmp_path.glob("fit_report*.json"))
        assert [json.loads(p.read_text())["report"]["kind"] for p in reports] == ["rf", "two-layer"]
        tables = sorted(tmp_path.glob("norms*.csv"))
        assert [p.read_text().splitlines()[2].split(",")[0] for p in tables] == [
            "model_rf", "model_two_layer"]

    def test_verify_subcommand(self, tmp_path, capsys):
        out = str(tmp_path)
        rc = main([
            "verify", "--lemma", "resnet-add", "--out", out,
            "--trials", "2", "--seed", "4",
        ])
        assert rc == 0
        assert (tmp_path / "verify_resnet_add.csv").exists()
        assert "pass fraction 1.0" in capsys.readouterr().out

    def test_scale_study_threads_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "rf", "d_grid": [2], "n_grid": [8, 16], "m_per_n": 8,
            "trials": 2, "n_test": 100, "n_atoms": 8, "seed": 7,
        }))
        for sub, threads in (("t1", "1"), ("t2", "2")):
            rc = main([
                "scale-study", "--config", str(cfg),
                "--out", str(tmp_path / sub), "--threads", threads,
            ])
            assert rc == 0
        for name in ("scale_study.csv", "scale_study_summary.json"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        assert main(["bound-audit", "--threads", threads, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: threads must be an integer >= 1, got {threads}"]
        assert not out.exists()

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"no_such_key": 1}))
        assert main(["gen-teacher", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["gen-teacher"], ["verify", "--lemma", "embedding"], ["bound-audit"]]
    )
    @pytest.mark.parametrize("bad", [{"delta": "0.1"}, {"delta": None}, {"gamma": "2"}])
    def test_mistyped_real_key_exits_2(self, tmp_path, capsys, command, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        (key,) = bad
        assert capsys.readouterr().err.startswith(f"error: {key} must be a real number")

    @pytest.mark.parametrize("bad, message", [
        ({"n_grid": 8.0}, "n_grid must be an integer or a list of integers, got 8.0"),
        ({"n_grid": None}, "n_grid must be an integer or a list of integers, got None"),
        ([1, 2], "a config must be a JSON object, got list"),
        ({"out": "work"}, "unknown config keys: out"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, bad, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert main(["bound-audit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_unread_study_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "two-layer", "n_grid": [8, 16], "L_grid": [256]}))
        assert main(["scale-study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "does not read L_grid" in capsys.readouterr().err
        assert not (tmp_path / "scale_study.csv").exists()

    def test_fit_without_teacher_exits_2(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        rc = main(["fit", "two-layer", str(tmp_path / "dataset.json"), *out])
        assert rc == 2
        assert "needs a teacher" in capsys.readouterr().err

    def test_fit_resnet_at_the_default_m1_and_L_cap(self, tmp_path, capsys):
        # L_cap's default leaves room for the default m1 = 512 teacher layers
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"d_grid": [2], "n_grid": [8], "n_atoms": 8, "m2": 256,
                                   "quadrature": 20_000}))
        out = ["--config", str(cfg), "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        rc = main(["fit", "resnet", str(tmp_path / "dataset.json"),
                   str(tmp_path / "teacher.json"), *out])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "fit_report_resnet.json").read_text())["report"]
        assert report["L"] == max(ExperimentConfig().m1, 256)
        assert report["interp_error"] <= 1e-8

    def test_fit_reads_a_study_config_for_any_family(self, workdir, capsys):
        # family is an rf key; the fitted family comes from the command line
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        study = tmp_path / "audit.json"
        study.write_text(json.dumps({"kind": "bound-audit", "model": "rf", "d_grid": [2],
                                     "n_grid": [8], "family": "random_fourier"}))
        rc = main(["fit", "two-layer", str(tmp_path / "dataset.json"),
                   str(tmp_path / "teacher.json"), "--config", str(study), "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "fit_report_two_layer.json").read_text())
        assert report["report"]["kind"] == "two-layer"
        assert report["config"]["family"] == "random_fourier"

    def test_fit_draws_the_rule_at_the_datasets_dimension(self, workdir, capsys):
        # the dataset has d = 2 and the fit's config the default d_grid (4,)
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"m1": 16, "m2": 256, "quadrature": 20_000, "seed": 5}))
        rc = main(["fit", "two-layer", str(tmp_path / "dataset.json"),
                   str(tmp_path / "teacher.json"), "--config", str(fit_cfg), "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "fit_report_two_layer.json").read_text())
        assert report["config"]["d_grid"] == [4]
        assert report["report"]["interp_error"] <= 1e-8 and report["report"]["lambda_target"] > 0

    def test_fit_resnet_rejects_infeasible_widths(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        config = json.loads((tmp_path / "config.json").read_text())
        (tmp_path / "config.json").write_text(json.dumps(dict(config, L_cap=16)))
        rc = main(["fit", "resnet", str(tmp_path / "dataset.json"),
                   str(tmp_path / "teacher.json"), *out])
        assert rc == 2
        assert "L_cap > m1" in capsys.readouterr().err
        assert not (tmp_path / "model_resnet.json").exists()

    def test_gen_data_rejects_several_sample_sizes(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        config = json.loads((tmp_path / "config.json").read_text())
        (tmp_path / "config.json").write_text(json.dumps(dict(config, n_grid=[8, 16])))
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 2
        assert "n_grid" in capsys.readouterr().err
        assert not (tmp_path / "dataset.json").exists()

    def test_norms_rejects_dataset_file(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = ["--config", cfg, "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        assert main(["norms", str(tmp_path / "dataset.json"), *out]) == 2
        assert "expects a model file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["gen-teacher"], ["gen-data", "teacher.json"],
                                         ["fit", "rf", "dataset.json"], ["norms", "model_rf.json"]])
    @pytest.mark.parametrize("flag", ["--threads", "--trials"])
    def test_file_commands_take_no_study_flags(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "minterp" in capsys.readouterr().out
