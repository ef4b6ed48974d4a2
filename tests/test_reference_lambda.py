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
from minterp.linalg import GramFactor
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
        n=st.integers(2, WITNESS_SIZE + 12),
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
        # cannot settle it and the whole rule is summed once, after one
        # witness pass
        rng = np.random.default_rng(9)
        X = rng.uniform(-1.0, 1.0, size=(2, 40))
        r = rng.standard_normal(40)
        r /= np.linalg.norm(r)
        rule = quadrature_rule(2, 20_000, 3)
        exact = fit_residual_net(X, r, 320, reference_lambda_min(X, rule), seed=9)
        sizes = []
        real = random_features.kernel_exact
        monkeypatch.setattr(random_features, "kernel_exact",
                            lambda family, X, rule=None, basis=None:
                            sizes.append(X.shape[1]) or real(family, X, rule, basis))
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


class TestQuotientBound:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(2, 60),
        pairs=st.integers(1, 400),
        mode=st.sampled_from(MODES),
        vector=st.sampled_from(["draw", "unit", "tight"]),
        seed=st.integers(0, 2**20),
    )
    def test_quotient_bound_is_at_least_the_reference_eigenvalue(self, d, n, pairs, mode,
                                                                 vector, seed):
        X = _inputs(d, n, mode, seed)
        rule = quadrature_rule(d, 2 * pairs, seed)
        reference = ReferenceLambda(X, rule)
        rng = np.random.default_rng(seed)
        if vector == "draw":
            # the floor's own witness: S and v from a residual draw's G
            W = rng.uniform(-1.0, 1.0, size=(4 * n, d + 1))
            W /= np.abs(W).sum(axis=1, keepdims=True)
            upper = reference._bound(GramFactor(random_features.FeatureFamily("relu_l1sphere")
                                                .features(W, X)))
        else:
            S = np.sort(rng.choice(n, size=min(n, WITNESS_SIZE), replace=False))
            if vector == "unit":
                v = rng.standard_normal(len(S))
                v /= np.linalg.norm(v)
            else:
                # K's own bottom eigenvector on its largest entries: the
                # quotient closest to lambda_ref, where only the allowance
                # keeps the bound above it
                K = random_features.kernel_exact(random_features.FeatureFamily("relu_l1sphere"),
                                                 X, rule)
                bottom = np.linalg.eigh(K)[1][:, 0]
                S = np.sort(np.argsort(-np.abs(bottom), kind="stable")[:WITNESS_SIZE])
                v = bottom[S]
            upper = reference.quotient_bound(S, v)
        assert upper >= reference_lambda_min(X, rule)

    @pytest.mark.parametrize("workload", ["two-layer-audit", "resnet-audit"])
    def test_allowance_is_far_below_the_audits_eigenvalues(self, workload, monkeypatch):
        seen = []
        bound = ReferenceLambda.quotient_bound

        def spy(reference, S, v):
            seen.append((reference.allowance(S, v), reference.X, reference.rule))
            return bound(reference, S, v)

        monkeypatch.setattr(ReferenceLambda, "quotient_bound", spy)
        config = ExperimentConfig.from_dict(load_workloads().workload_config(workload, 0))
        run_study(config, threads=1)
        assert len(seen) == config.trials * len(config.n_grid)
        for allowance, X, rule in seen:
            assert 0 < allowance <= 1e-8 * reference_lambda_min(X, rule)


def _witness(gram):
    """ReferenceLambda._bound's S and v from a draw's factor."""
    S = np.sort(np.argsort(-np.abs(gram.bottom_vector), kind="stable")[:WITNESS_SIZE])
    return S, np.linalg.eigh(gram.G[np.ix_(S, S)])[1][:, 0]


class TestSinglePass:
    """The float32 witness pass, its certified rounding and its fallback to value."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(2, 60),
        pairs=st.integers(1, 400),
        mode=st.sampled_from(MODES),
        vector=st.sampled_from(["draw", "unit", "tight"]),
        seed=st.integers(0, 2**20),
    )
    def test_float32_bound_is_at_least_the_reference_eigenvalue(self, d, n, pairs, mode,
                                                                vector, seed):
        X = _inputs(d, n, mode, seed)
        rule = quadrature_rule(d, 2 * pairs, seed)
        reference = ReferenceLambda(X, rule)
        rng = np.random.default_rng(seed)
        relu = random_features.FeatureFamily("relu_l1sphere")
        if vector == "draw":
            W = rng.uniform(-1.0, 1.0, size=(4 * n, d + 1))
            W /= np.abs(W).sum(axis=1, keepdims=True)
            gram = GramFactor(relu.features(W, X))
            S, v = _witness(gram)
            assert reference._bound(gram) == reference.quotient_bound(S, v)
        elif vector == "unit":
            S = np.sort(rng.choice(n, size=min(n, WITNESS_SIZE), replace=False))
            v = rng.standard_normal(len(S))
            v /= np.linalg.norm(v)
        else:
            bottom = np.linalg.eigh(random_features.kernel_exact(relu, X, rule))[1][:, 0]
            S = np.sort(np.argsort(-np.abs(bottom), kind="stable")[:WITNESS_SIZE])
            v = bottom[S]
        lam = reference_lambda_min(X, rule)
        assert reference.quotient_bound(S, v) >= lam
        # the certified rounding covers the float32 pass against an extended-precision sum
        form, rounding = random_features.kernel_exact(relu, X[:, S], rule, v[:, None])
        Xt = np.vstack([X[:, S], np.ones((1, len(S)))]).astype(np.longdouble)
        g = np.abs(rule.pairs.astype(np.longdouble) @ Xt) @ v.astype(np.longdouble)
        linear = rule.R.astype(np.longdouble) @ (Xt @ v.astype(np.longdouble))
        exact = (g @ g + linear @ linear) / (2 * rule.Q)
        assert rounding.shape == (1, 1) and rounding[0, 0] >= 0
        assert abs(form[0, 0] - exact) <= rounding[0, 0] + 2.0 ** -40 * exact

    def test_float32_pass_needs_relu_and_a_basis(self):
        with pytest.raises(ValueError, match="ReLU witness pass only"):
            random_features.kernel_exact(random_features.FeatureFamily("random_fourier"),
                                         np.zeros((2, 3)), quadrature_rule(2, 20, 0),
                                         np.ones((3, 1)))

    def test_unsettled_float32_bound_reads_value(self, monkeypatch):
        # a float32 rounding inflated past any use cannot settle the floor, so
        # value is summed after the one witness pass; the fit is the eager
        # reference's
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 1.0, size=(2, 40))
        r = rng.standard_normal(40)
        r /= np.linalg.norm(r)
        rule = quadrature_rule(2, 20_000, 5)
        exact = fit_residual_net(X, r, 320, reference_lambda_min(X, rule), seed=4)
        calls = []
        real = random_features.kernel_exact

        def spy(family, X, rule=None, basis=None):
            calls.append((X.shape[1], basis is None))
            out = real(family, X, rule, basis)
            return (out[0], out[1] + 1e3) if basis is not None else out

        monkeypatch.setattr(random_features, "kernel_exact", spy)
        lazy = fit_residual_net(X, r, 320, ReferenceLambda(X, rule), seed=4)
        assert calls == [(WITNESS_SIZE, False), (40, True)]
        assert exact.resamples_used == 1
        _assert_same(exact, lazy)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("workload", ["two-layer-audit", "resnet-audit"])
    def test_float32_rounding_is_far_below_the_audits_eigenvalues(self, workload, seed,
                                                                  monkeypatch):
        # every first-draw floor test settles on the float32 bound, whose
        # rounding term stays under 1e-2 lambda_ref; value is never summed
        passes, references = [], []
        real, bound = random_features.kernel_exact, ReferenceLambda.quotient_bound

        def spy(family, X, rule=None, basis=None):
            out = real(family, X, rule, basis)
            passes.append((basis, out))
            return out

        monkeypatch.setattr(random_features, "kernel_exact", spy)
        monkeypatch.setattr(ReferenceLambda, "quotient_bound",
                            lambda reference, S, v: references.append(reference)
                            or bound(reference, S, v))
        config = ExperimentConfig.from_dict(load_workloads().workload_config(workload, seed))
        run_study(config, threads=1)
        monkeypatch.undo()
        assert len(passes) == len(references) == config.trials * len(config.n_grid)
        for (basis, (form, rounding)), reference in zip(passes, references):
            assert basis is not None and "value" not in reference.__dict__
            v = basis[:, 0]
            lam = reference_lambda_min(reference.X, reference.rule)
            assert 0 < rounding[0, 0] / float(v @ v) <= 1e-2 * lam


class TestCounting:
    CONFIGS = {
        "two-layer": dict(n_atoms=8, quadrature=20_000, m1=16, m_per_n=16, n_test=100,
                          rad_draws=4),
        "resnet": dict(L_grid=(640,), L_cap=1024, n_atoms=8, quadrature=20_000, m1=8, n_test=100),
    }

    @pytest.mark.parametrize("n", [WITNESS_SIZE - 8, WITNESS_SIZE + 8])
    @pytest.mark.parametrize("model", sorted(CONFIGS))
    def test_bound_audit_sums_no_reference_kernel(self, model, n, monkeypatch):
        config = ExperimentConfig(kind="bound-audit", model=model, d_grid=(2,), n_grid=(n,),
                                  trials=2, seed=3, **self.CONFIGS[model])
        calls = []
        real = random_features.kernel_exact
        monkeypatch.setattr(random_features, "kernel_exact",
                            lambda family, X, rule=None, basis=None:
                            calls.append((X.shape[1], basis is None))
                            or real(family, X, rule, basis))
        lazy = run_study(config, threads=1)
        # one witness pass per fit, on at most WITNESS_SIZE points, and no kernel
        assert calls == [(min(n, WITNESS_SIZE), False)] * config.trials
        calls.clear()
        monkeypatch.setattr(experiments, "ReferenceLambda", reference_lambda_min)
        eager = run_study(config, threads=1)
        assert calls == [(n, True)] * config.trials
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
