"""Acceptance suite: one test per stated guarantee of the package.

Each criterion prints a single PASS/FAIL line with its measured margin
(visible even under captured output), then asserts.  Master seed and all
configs are frozen; the heavy studies run once in shared fixtures.
"""

import math
import time

import numpy as np
import pytest

from minterp import (
    ExperimentConfig,
    derive_seed,
    rad_path_ball,
    rad_rf_ball,
    rng_from,
    run_study,
)
from minterp.cli import main

from _workloads import load_workloads

SEED = 20240817


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _verify(lemma: str, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(kind="verify-lemma", lemma=lemma, seed=SEED, **kwargs)


@pytest.fixture(scope="module")
def audit_study():
    config = ExperimentConfig(
        kind="bound-audit",
        model="rf",
        d_grid=(4,),
        n_atoms=64,
        n_grid=(32, 64, 128, 256, 512),
        m_per_n=64,
        trials=20,
        n_test=8192,
        delta=0.1,
        rad_draws=32,
        seed=SEED,
    )
    start = time.monotonic()
    result = run_study(config, threads=2)
    return result, time.monotonic() - start


def test_criterion_01_kernel_concentration(capsys):
    config = _verify(
        "kernel-approx",
        d_grid=(4,),
        n_grid=(32,),
        trials=200,
        delta=0.1,
        quadrature=1_000_000,
    )
    start = time.monotonic()
    result = run_study(config, threads=2)
    elapsed = time.monotonic() - start
    s = result.summary
    eigen = s["per_m_eigen_pass"]
    eigen_ok = all(v >= 0.9 for v in eigen.values())
    eigen_note = (
        f"eigen pass {min(eigen.values()):.3f} over m>={s['eigen_threshold_width']:.3g}"
        if eigen
        else f"no m reaches eigen width {s['eigen_threshold_width']:.3g} (vacuous)"
    )
    ok = s["min_per_m_pass"] >= 0.9 and eigen_ok and s["failures"] == 0 and elapsed <= 300
    _report(
        capsys, 1, ok,
        f"spectral pass >= {s['min_per_m_pass']:.3f} at every m (need 0.9); "
        f"{eigen_note}; {elapsed:.1f}s (cap 300s)",
    )


def test_criterion_02_surrogate_norm(capsys):
    config = _verify(
        "krr-bound", d_grid=(4,), n_grid=(32,), trials=50,
        quadrature=1_000_000, n_atoms=64,
    )
    result = run_study(config, threads=2)
    rows = result.rows
    worst = max(r["reproduce_error"] for r in rows if not r["error"])
    min_surrogate = min(r["surrogate_norm"] for r in rows if not r["error"])
    ok = result.failures == 0 and result.pass_fraction == 1.0
    _report(
        capsys, 2, ok,
        f"surrogate >= 0 in 50/50 (min {min_surrogate:.4f}); "
        f"worst label reproduction {worst:.2e} (need <= 1e-8)",
    )


def test_criterion_03_min_norm_radius(capsys):
    config = _verify(
        "min-norm-rf",
        d_grid=(4,),
        n_grid=(24,),
        trials=50,
        delta=0.1,
        family="random_fourier",
        gamma=8.0,
        m_cap=3_000_000,
        n_atoms=64,
    )
    result = run_study(config, threads=2)
    met = result.summary["threshold_met_fraction"]
    ms = [r["m"] for r in result.rows if not r["error"]]
    ok = result.pass_fraction >= 0.9 and met == 1.0 and result.failures == 0
    _report(
        capsys, 3, ok,
        f"norm radius within 2*sqrt(surrogate) in {result.pass_fraction:.2f} of trials "
        f"(need 0.9); width threshold met in all (median m {int(np.median(ms))})",
    )


def test_criterion_04_residual_certificate(capsys):
    config = _verify(
        "fit-rand-label", d_grid=(3,), n_grid=(16,), trials=50,
        m2=8192, quadrature=400_000,
    )
    result = run_study(config, threads=2)
    rows = [r for r in result.rows if not r["error"]]
    worst_interp = max(r["interp_error"] for r in rows)
    worst_ratio = max(
        r["path_norm"] / (math.sqrt(2.0 / r["lambda_ref"]) * r["teacher_norm"])
        for r in rows
    )
    ok = result.failures == 0 and result.pass_fraction == 1.0
    _report(
        capsys, 4, ok,
        f"50/50 trials interpolate (worst error {worst_interp:.2e}) with path norm "
        f"at most {worst_ratio:.3f} of the eigen-floor budget",
    )


def test_criterion_05_composite_norm(capsys):
    config = _verify(
        "two-layer-composite", d_grid=(4,), n_grid=(32,), trials=50,
        n_atoms=64, m1=512, m2=16384, quadrature=200_000,
    )
    result = run_study(config, threads=2)
    ratios = [
        r["path_norm"] / r["teacher_norm"] for r in result.rows if not r["error"]
    ]
    ok = result.pass_fraction >= 0.9
    _report(
        capsys, 5, ok,
        f"path norm <= 3x teacher bound in {result.pass_fraction:.2f} of 50 trials "
        f"(need 0.9); ratio median {np.median(ratios):.3f}, max {max(ratios):.3f}",
    )


def test_criterion_06_resnet_additivity(capsys):
    config = _verify(
        "resnet-add", d_grid=(3,), L_grid=(8,), trials=100,
    )
    result = run_study(config, threads=2)
    rows = [r for r in result.rows if not r["error"]]
    worst_value = max(r["value_dev"] for r in rows)
    worst_norm = max(r["norm_dev"] for r in rows)
    ok = result.failures == 0 and result.pass_fraction == 1.0
    _report(
        capsys, 6, ok,
        f"100/100 pairs additive; worst value dev {worst_value:.2e}, "
        f"worst norm dev {worst_norm:.2e} (need <= 1e-12)",
    )


def test_criterion_07_embedding_exactness(capsys):
    config = _verify(
        "embedding", d_grid=(3,), trials=100,
    )
    result = run_study(config, threads=2)
    rows = [r for r in result.rows if not r["error"]]
    worst_value = max(r["value_dev"] for r in rows)
    worst_ratio = max(abs(r["norm_ratio"] - 3.0) for r in rows)
    ok = result.failures == 0 and result.pass_fraction == 1.0
    _report(
        capsys, 7, ok,
        f"100/100 nets embed exactly; worst value dev {worst_value:.2e}, "
        f"norm ratio within {worst_ratio:.2e} of 3",
    )


def test_criterion_08_risk_decay_rate(capsys, audit_study):
    result, elapsed = audit_study
    slope = result.summary.get("slope")
    ci = result.summary.get("slope_ci")
    ok = (
        result.failures == 0
        and slope is not None
        and slope <= -0.5
        and elapsed <= 900
    )
    _report(
        capsys, 8, ok,
        f"log-log slope of median test risk {slope:.3f} (need <= -0.5), "
        f"bootstrap CI {ci}; {elapsed:.1f}s (cap 900s)",
    )


def test_criterion_09_deviation_bound(capsys, audit_study):
    result, _ = audit_study
    frac = result.summary["bound_pass_fraction"]
    ok = result.failures == 0 and frac >= 0.9
    _report(
        capsys, 9, ok,
        f"held-out risk within the deviation bound in {frac:.2f} of "
        f"{len(result.rows)} trials (need 0.9)",
    )


def test_criterion_10_rademacher_sanity(capsys):
    est = rad_rf_ball(np.ones((2, 1)), C=1.0, n_draws=256, seed=7)
    enum_gap = abs(est.mean - 0.5)
    enum_ok = enum_gap <= 3 * est.std_error

    violations = 0
    worst = -math.inf
    for i in range(100):
        rng = rng_from(derive_seed(99, i))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(4, 33))
        C = float(rng.uniform(0.5, 2.0))
        X = rng.uniform(-1.0, 1.0, (d, n))
        res = rad_path_ball(
            X, C, n_draws=16, n_starts=4, seed=derive_seed(99, 1000 + i)
        )
        gap = res.estimate.mean - (res.upper + 3 * res.estimate.std_error)
        worst = max(worst, gap)
        if gap > 0:
            violations += 1
    ok = enum_ok and violations == 0
    _report(
        capsys, 10, ok,
        f"enumeration case off by {enum_gap:.4f} (<= 3 se = {3 * est.std_error:.4f}); "
        f"path-ball estimate exceeded its upper bound in {violations}/100 instances "
        f"(worst margin {worst:.3f})",
    )


def test_criterion_11_byte_determinism(capsys, tmp_path):
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "model": "rf", "d_grid": [2], "n_atoms": 8, "n_grid": [8, 16, 32, 64],
        "m_per_n": 32, "trials": 3, "n_test": 1000, "seed": 7,
    }))
    blobs = {}
    for threads in (1, 2, 4):
        out = tmp_path / f"t{threads}"
        rc = main([
            "scale-study", "--config", str(cfg_path),
            "--out", str(out), "--threads", str(threads),
        ])
        assert rc == 0
        blobs[threads] = (
            (out / "scale_study.csv").read_bytes(),
            (out / "scale_study_summary.json").read_bytes(),
        )
    capsys.readouterr()
    ok = blobs[1] == blobs[2] == blobs[4]
    _report(
        capsys, 11, ok,
        f"scale-study CSV and summary byte-identical across threads 1/2/4 "
        f"({len(blobs[1][0])} CSV bytes)",
    )


def _workload_audit(workload: str, **overrides) -> tuple[bool, str]:
    """The benchmark workload's bound audit at 8 trials, held to the gates of 08 and 09.

    Returns whether it passes and the line that reports it.  The labels
    are noiseless and the teacher lies in the model class, so at d = 4
    the slopes come out near -1, steeper than the paper's n^(-1/2); the
    gate asks for at least that rate, not for equality.
    """
    config = dict(load_workloads().workload_config(workload, SEED), trials=8, **overrides)
    result = run_study(ExperimentConfig.from_dict(config), threads=2)
    slope = result.summary.get("slope")
    frac = result.summary["bound_pass_fraction"]
    ok = result.failures == 0 and slope is not None and slope <= -0.5 and frac >= 0.9
    return ok, (
        f"{workload}: log-log slope {slope:.3f} (need <= -0.5), bootstrap CI "
        f"{result.summary.get('slope_ci')}; bound holds in {frac:.2f} of "
        f"{len(result.rows)} trials (need 0.9); {result.failures} failures"
    )


def test_criterion_12_two_layer_audit(capsys):
    _report(capsys, 12, *_workload_audit("two-layer-audit"))


def test_criterion_13_resnet_audit(capsys):
    _report(capsys, 13, *_workload_audit("resnet-audit"))


def test_criterion_14_dimension_free_rate(capsys):
    """All three benchmark audits at d = 16 keep the rate n^(-1/2) or better.

    The paper's rate carries no curse of dimensionality.  At d = 4 the
    slopes are near -1; they flatten toward -1/2 as d grows, so d = 16
    holds each model family to the gates of 08 and 09 where the rate is
    no longer the easy low-dimensional one.
    """
    audits = [_workload_audit(w, d_grid=[16])
              for w in ("rf-audit", "two-layer-audit", "resnet-audit")]
    _report(capsys, 14, all(ok for ok, _ in audits),
            "d = 16; " + "; ".join(detail for _, detail in audits))
