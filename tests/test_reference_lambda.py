"""ReferenceLambda, the reference eigenvalue that sums its whole rule only on demand.

Every reader must decide as the exact float reference_lambda_min(X, rule)
does: the same fit bits or the same exception, the same floor and the
same width threshold.
"""

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minterp import (
    Dataset,
    ExperimentConfig,
    approximate_teacher,
    concentration_width,
    embed_two_layer,
    fit_residual_net,
    interpolate_resnet,
    interpolate_two_layer,
    make_teacher,
    quadrature_rule,
    reference_lambda_min,
    run_study,
    teacher_eval_batch,
)
from minterp import experiments, random_features
from minterp.cli import main
from minterp.experiments import study_rule
from minterp.random_features import WITNESS_SIZE, ReferenceLambda
from minterp.serialize import read_file

from _workloads import load_workloads


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # both paths must raise the same type with the same message
        return type(exc), str(exc)


def _assert_same(a, b, where="result"):
    """a and b hold the same bits; a ResidualFit's reference is compared by its value."""
    assert type(a) is type(b), where
    if is_dataclass(a):
        for f in fields(a):
            if f.name == "reference":
                _assert_same(a.lambda_target, b.lambda_target, f"{where}.lambda_target")
            else:
                _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (where, a, b)
    else:
        assert a == b, where


def _inputs(d, n, mode, seed):
    """X in [-1, 1]^(d, n); duplicated or near-duplicated columns put lambda_ref near or below 0."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(d, n))
    if mode == "duplicate":
        X[:, 1] = X[:, 0]
    elif mode == "half-duplicated":
        X[:, : n // 2] = X[:, n - n // 2 :]
    elif mode.startswith("near"):
        step = {"near-1e-9": 1e-9, "near-1e-4": 1e-4}[mode]
        X[:, 1] = np.clip(X[:, 0] + step * rng.standard_normal(d), -1.0, 1.0)
    return X


MODES = ("plain", "duplicate", "half-duplicated", "near-1e-9", "near-1e-4")


def _fit(entry, X, rule, lam, seed, width):
    d, n = X.shape
    if entry == "fit_residual_net":
        r = np.random.default_rng(seed + 1).standard_normal(n)
        return fit_residual_net(X, r / np.linalg.norm(r), width * n, lam, seed=seed)
    teacher = make_teacher(d, 8, seed)
    data = Dataset(X=X, y=teacher_eval_batch(teacher, X), seed=seed)
    if entry == "interpolate_two_layer":
        return interpolate_two_layer(data, teacher, 16, width * n, seed, lam)
    teacher_net = embed_two_layer(approximate_teacher(teacher, 8, X, seed).net)
    return interpolate_resnet(data, teacher_net, width * n, seed, lam)


class TestEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        entry=st.sampled_from(["fit_residual_net", "interpolate_two_layer", "interpolate_resnet"]),
        d=st.integers(1, 3),
        n=st.integers(WITNESS_SIZE - 2, WITNESS_SIZE + 12),
        # rules of 2 points, of fewer draws than points (a singular K), at the
        # minorant's 8 n draws and well past it; plain inputs and wide rules
        # twice, since they are the ones whose floor the bound settles
        pairs=st.sampled_from([1, 16, 8 * WITNESS_SIZE + 96, 2000, 2000]),
        mode=st.sampled_from(("plain",) + MODES),
        width=st.integers(1, 8),
        seed=st.integers(0, 2**20),
    )
    def test_lazy_reference_fits_as_the_exact_float(self, entry, d, n, pairs, mode, width, seed):
        X = _inputs(d, n, mode, seed)
        rule = quadrature_rule(d, 2 * pairs, seed)
        exact = _outcome(lambda: _fit(entry, X, rule, reference_lambda_min(X, rule), seed, width))
        reference = ReferenceLambda(X, rule)
        lazy = _outcome(lambda: _fit(entry, X, rule, reference, seed, width))
        _assert_same(exact, lazy)
        if isinstance(exact, tuple):
            return
        # threshold_met reads width_met: around the exact threshold it must agree
        lam = reference_lambda_min(X, rule)
        threshold = concentration_width(n, 0.05, lam)
        for w in {0, math.floor(threshold), math.ceil(threshold), math.ceil(threshold) + 1}:
            assert reference.width_met(w, n, 0.05) == (w >= threshold)

    def test_a_draw_below_the_floor_reads_the_exact_value(self, monkeypatch):
        # the first draw fails lambda_emp >= lambda_ref / 2, so the bound
        # cannot settle it and the whole rule is summed once
        rng = np.random.default_rng(9)
        X = rng.uniform(-1.0, 1.0, size=(2, 40))
        r = rng.standard_normal(40)
        r /= np.linalg.norm(r)
        rule = quadrature_rule(2, 20_000, 3)
        exact = fit_residual_net(X, r, 320, reference_lambda_min(X, rule), seed=9)
        sizes = []
        real = random_features.kernel_exact
        monkeypatch.setattr(random_features, "kernel_exact",
                            lambda family, X, rule=None: sizes.append(X.shape[1]) or real(family, X, rule))
        lazy = fit_residual_net(X, r, 320, ReferenceLambda(X, rule), seed=9)
        assert exact.resamples_used >= 2
        assert sizes.count(40) == 1 and sizes.count(WITNESS_SIZE) == 1
        _assert_same(exact, lazy)

    def test_a_number_is_its_own_exact_reference(self):
        reference = ReferenceLambda.of(2e-5)
        assert ReferenceLambda.of(reference) is reference
        assert reference.value == 2e-5 and reference.positive
        assert reference.floor_met(1e-5, None) and not reference.floor_met(0.9e-5, None)
        assert not ReferenceLambda.of(0.0).positive and not ReferenceLambda.of(math.nan).positive


class TestInterlacing:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(2, 60),
        pairs=st.integers(1, 400),
        mode=st.sampled_from(MODES),
        tight=st.booleans(),
        size=st.integers(1, 60),
        seed=st.integers(0, 2**20),
    )
    def test_subset_bound_is_at_least_the_reference_eigenvalue(self, d, n, pairs, mode, tight,
                                                               size, seed):
        X = _inputs(d, n, mode, seed)
        rule = quadrature_rule(d, 2 * pairs, seed)
        size = min(size, n)
        if tight:
            # the points where K's own bottom eigenvector is largest: the
            # subset whose lambda_min lies closest to lambda_ref
            K = random_features.kernel_exact(random_features.FeatureFamily("relu_l1sphere"), X, rule)
            bottom = np.abs(np.linalg.eigh(K)[1][:, 0])
            S = np.sort(np.argsort(-bottom, kind="stable")[:size])
        else:
            S = np.sort(np.random.default_rng(seed).choice(n, size=size, replace=False))
        assert ReferenceLambda(X, rule).subset_bound(S) >= reference_lambda_min(X, rule)

    @pytest.mark.parametrize("workload", ["two-layer-audit", "resnet-audit"])
    def test_allowance_is_far_below_the_audits_eigenvalues(self, workload, monkeypatch):
        seen = []
        bound = ReferenceLambda.subset_bound

        def spy(reference, S):
            seen.append((reference.allowance(S), reference.X, reference.rule))
            return bound(reference, S)

        monkeypatch.setattr(ReferenceLambda, "subset_bound", spy)
        config = ExperimentConfig.from_dict(load_workloads().workload_config(workload, 0))
        run_study(config, threads=1)
        assert len(seen) == config.trials * sum(n > WITNESS_SIZE for n in config.n_grid)
        for allowance, X, rule in seen:
            assert 0 < allowance <= 1e-8 * reference_lambda_min(X, rule)


class TestCounting:
    CONFIGS = {
        "two-layer": dict(n_atoms=8, quadrature=20_000, m1=16, m_per_n=16, n_test=100,
                          rad_draws=4),
        "resnet": dict(L_grid=(640,), L_cap=1024, n_atoms=8, quadrature=20_000, m1=8, n_test=100),
    }

    @pytest.mark.parametrize("model", sorted(CONFIGS))
    def test_bound_audit_sums_no_full_size_reference_kernel(self, model, monkeypatch):
        n = WITNESS_SIZE + 8
        config = ExperimentConfig(kind="bound-audit", model=model, d_grid=(2,), n_grid=(n,),
                                  trials=2, seed=3, **self.CONFIGS[model])
        sizes = []
        real = random_features.kernel_exact
        monkeypatch.setattr(random_features, "kernel_exact",
                            lambda family, X, rule=None: sizes.append(X.shape[1]) or real(family, X, rule))
        lazy = run_study(config, threads=1)
        assert sizes == [WITNESS_SIZE] * config.trials
        monkeypatch.setattr(experiments, "ReferenceLambda", reference_lambda_min)
        eager = run_study(config, threads=1)
        assert sizes.count(n) == config.trials
        assert not any(row["error"] for row in eager.rows)
        assert lazy.rows == eager.rows and lazy.summary == eager.summary

    @pytest.mark.parametrize("model", ["two-layer", "resnet"])
    def test_fit_reports_the_exact_reference_eigenvalue(self, model, tmp_path, capsys):
        cfg = {"d_grid": [2], "n_grid": [WITNESS_SIZE + 8], "n_atoms": 8, "m1": 16, "m2": 256,
               "quadrature": 20_000, "seed": 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = ["--config", str(path), "--out", str(tmp_path)]
        assert main(["gen-teacher", *out]) == 0
        assert main(["gen-data", str(tmp_path / "teacher.json"), *out]) == 0
        assert main(["fit", model, str(tmp_path / "dataset.json"),
                     str(tmp_path / "teacher.json"), *out]) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / f"fit_report_{model.replace('-', '_')}.json").read_text())
        data = read_file(tmp_path / "dataset.json", "dataset")
        rule = study_rule(ExperimentConfig(quadrature=cfg["quadrature"], seed=cfg["seed"]), data.d)
        assert report["report"]["lambda_target"] == reference_lambda_min(data.X, rule)
